"""Characteristic formulas defining stage-k bisimilarity classes.

For negation-closed atom profiles, each team assignment s gets a formula
of quantifier rank exactly k that is satisfied at a point of any fitting
model iff that point is k-bisimilar to s.  The formulas of all rows are
built together, one rank at a time, from one :class:`Evaluator`: its atom
bitsets give the rank-0 literals and its cached X-blocks the quantifier
conjuncts.  A back conjunct ``A[X] (chi_1 | ...)`` is one object per
X-block and a forth conjunct ``E[X] chi_j`` one object per (X, chi_j), so
the result is a DAG whose size is polynomial in the team, and the
memoizing checker and printer handle it once per node.
"""

from __future__ import annotations

from itertools import combinations

from .bisim import canonical_atoms
from .checker import Evaluator
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

    atoms = canonical_atoms(ftype, omega)
    if not atoms:
        # one variable, no relations and a profile within {=, !=}: all rows
        # are 0-bisimilar, and x = x is the valid rank-0 formula
        if KIND_EQ not in omega:
            raise FormulaError("empty atom family: no rank-0 formulas exist")
        v = ftype.variables[0]
        atoms = [Eq(v, v)]
    ev = Evaluator(model)
    masks = [ev.mask(a) for a in atoms]
    n = len(model.team)
    # a fresh negation per row: rows share a rank-0 formula object only
    # when the family is one atom and it holds at both
    chis = [
        conj([a if m >> i & 1 else negate_atom(a, omega) for a, m in zip(atoms, masks)])
        for i in range(n)
    ]
    vs = ftype.variables
    subsets = [tuple(c) for r in range(len(vs) + 1) for c in combinations(vs, r)]
    # per variable set X, the bitset of each row's X-block
    block_of = []
    for X in subsets:
        of_row = [0] * n
        for b in ev.blocks(X).values():
            for i in range(n):
                if b >> i & 1:
                    of_row[i] = b
        block_of.append(of_row)
    for _ in range(k):
        # back conjuncts are shared per (X, block), forth conjuncts per
        # (X, body); rows repeating a body object add its conjunct once
        backs: dict[tuple[int, int], Formula] = {}
        forths: dict[tuple[int, int], Formula] = {}
        nxt = []
        for i in range(n):
            parts = []
            for x, X in enumerate(subsets):
                b = block_of[x][i]
                back = backs.get((x, b))
                if back is None:
                    options = _dedup_by_id([chis[j] for j in range(n) if b >> j & 1])
                    back = backs[x, b] = Forall(X, disj(options))
                parts.append(back)
            seen: set[int] = set()
            for j in range(n):
                body = chis[j]
                for x, X in enumerate(subsets):
                    if block_of[x][i] >> j & 1:
                        forth = forths.get((x, id(body)))
                        if forth is None:
                            forth = forths[x, id(body)] = Exists(X, body)
                        if id(forth) not in seen:
                            seen.add(id(forth))
                            parts.append(forth)
            nxt.append(conj(parts))
        chis = nxt
    return chis
