"""Characteristic formulas defining stage-k bisimilarity classes.

For negation-closed atom profiles, each team assignment s gets a formula
of quantifier rank exactly k that is satisfied at a point of any fitting
model iff that point is k-bisimilar to s.  The construction memoizes per
(row, rank) and shares subformula objects aggressively; the memoizing
checker then evaluates the resulting DAG without blowup.
"""

from __future__ import annotations

from itertools import combinations

from .bisim import atom_truth_table, canonical_atoms, comvar
from .model import Assignment, DependenceModel
from .syntax import (
    KIND_EQ,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaError,
    OmegaProfile,
    conj,
    disj,
    negate_atom,
)


def _dedup_by_id(parts: list[Formula]) -> list[Formula]:
    seen: set[int] = set()
    out = []
    for p in parts:
        if id(p) not in seen:
            seen.add(id(p))
            out.append(p)
    return out


def char_formula(
    model: DependenceModel, s: Assignment, k: int, omega: OmegaProfile
) -> Formula:
    """The formula defining the stage-k bisimilarity class of ``s``."""
    return char_formula_all(model, k, omega)[model.row_index(s)]


def char_formula_all(
    model: DependenceModel, k: int, omega: OmegaProfile
) -> list[Formula]:
    """Characteristic formulas for every team row at once, sharing
    subformulas across rows; index i holds the formula of team row i."""
    if not omega.is_negation_closed():
        raise FormulaError("characteristic formulas need a negation-closed profile")
    if k < 0:
        raise FormulaError("rank must be nonnegative")
    ftype = model.ftype
    team = model.team

    atoms = canonical_atoms(ftype, omega)
    if not atoms:
        # one variable, no relations and a profile within {=, !=}: all rows
        # are 0-bisimilar, and x = x is the valid rank-0 formula
        if KIND_EQ not in omega:
            raise FormulaError("empty atom family: no rank-0 formulas exist")
        v = ftype.variables[0]
        atoms = [Eq(v, v)]
    truth = atom_truth_table(model, atoms)
    vs = ftype.variables
    subsets = [
        tuple(c) for r in range(len(vs) + 1) for c in combinations(vs, r)
    ]

    memo: dict[tuple[int, int], Formula] = {}

    def chi(i: int, level: int) -> Formula:
        key = (i, level)
        if key in memo:
            return memo[key]
        if level == 0:
            parts = [
                a if truth[i][j] else negate_atom(a, omega)
                for j, a in enumerate(atoms)
            ]
            out = conj(parts)
        else:
            si = team[i]
            back = []
            for X in subsets:
                options = _dedup_by_id(
                    [
                        chi(j, level - 1)
                        for j, t in enumerate(team)
                        if model.agree(t, si, X)
                    ]
                )
                back.append(Forall(X, disj(options)))
            forth = []
            seen: set[tuple[tuple[str, ...], int]] = set()
            for j, t in enumerate(team):
                body = chi(j, level - 1)
                cv = set(comvar(t, si, ftype))
                for X in subsets:
                    if set(X) <= cv and (X, id(body)) not in seen:
                        seen.add((X, id(body)))
                        forth.append(Exists(X, body))
            out = conj(back + forth)
        memo[key] = out
        return out

    return [chi(i, k) for i in range(len(team))]
