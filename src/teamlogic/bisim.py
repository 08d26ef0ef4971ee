"""Finite-stage bisimulation between dependence models via partition
refinement, with replayable failure witnesses.

Refinement works on the product of the two teams: stage 0 is agreement on
a finite canonical atom family, and each later stage keeps a pair exactly
when the back and forth conditions hold with stage-earlier partners.  The
back/forth conditions quantify over every finite subset of the common
variables of two assignments; it suffices to check the maximal set, since
a partner agreeing on a superset agrees on every subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Union

from .checker import Evaluator
from .model import Assignment, DependenceModel, ModelError, PointedModel
from .syntax import (
    Anon,
    Dep,
    Eq,
    Excl,
    FiniteType,
    Formula,
    Incl,
    Ind,
    KIND_D,
    KIND_EQ,
    KIND_IN,
    KIND_IND,
    KIND_NEQ,
    KIND_NIND,
    KIND_NOTIN,
    KIND_Y,
    Neq,
    NInd,
    OmegaProfile,
    RelLit,
)


@dataclass(frozen=True)
class BisimRelation:
    """A set of (left row index, right row index) pairs produced at a
    refinement stage."""

    pairs: frozenset[tuple[int, int]]
    stage: int
    fixpoint: bool = False

    def relates(self, i: int, j: int) -> bool:
        return (i, j) in self.pairs


@dataclass(frozen=True)
class FailureWitness:
    """Why a pair was discarded.  ``kind`` is one of 'atom', 'forth',
    'back'; for atom failures ``detail`` is the disagreeing atom, for
    back/forth it is (challenger row index, agreement variable set)."""

    pair: tuple[int, int]
    stage: int
    kind: str
    detail: Union[Formula, tuple[int, tuple[str, ...]]]


def comvar(s: Assignment, t: Assignment, ftype: FiniteType) -> tuple[str, ...]:
    """The variables on which two assignments agree."""
    return tuple(v for i, v in enumerate(ftype.variables) if s[i] == t[i])


def canonical_atoms(ftype: FiniteType, omega: OmegaProfile) -> list[Formula]:
    """The finite atom family defining stage-0 agreement: all relational
    atoms, dependence/anonymity atoms for every variable set, equality
    atoms for variable pairs, and tuple atoms over repetition-free tuples."""
    vs = ftype.variables
    atoms: list[Formula] = []
    from itertools import product as iproduct

    for rel, ar in ftype.relations:
        for args in iproduct(vs, repeat=ar):
            atoms.append(RelLit(True, rel, args))
    subsets = [
        tuple(c)
        for r in range(len(vs) + 1)
        for c in combinations(vs, r)
    ]
    if KIND_D in omega:
        atoms.extend(Dep(X, y) for X in subsets for y in vs)
    if KIND_Y in omega:
        atoms.extend(Anon(X, y) for X in subsets for y in vs)
    if KIND_EQ in omega:
        atoms.extend(Eq(x, y) for x, y in combinations(vs, 2))
    if KIND_NEQ in omega:
        atoms.extend(Neq(x, y) for x, y in combinations(vs, 2))
    tuple_pairs = [
        (xs, ys)
        for r in range(1, len(vs) + 1)
        for xs in permutations(vs, r)
        for ys in permutations(vs, r)
    ]
    if KIND_IN in omega:
        atoms.extend(Incl(xs, ys) for xs, ys in tuple_pairs)
    if KIND_NOTIN in omega:
        atoms.extend(Excl(xs, ys) for xs, ys in tuple_pairs)
    if KIND_IND in omega:
        atoms.extend(Ind(xs, ys) for xs, ys in tuple_pairs)
    if KIND_NIND in omega:
        atoms.extend(NInd(xs, ys) for xs, ys in tuple_pairs)
    return atoms


def atom_truth_table(
    model: DependenceModel, atoms: list[Formula]
) -> list[tuple[bool, ...]]:
    """Per team row, the truth vector of the atom family."""
    ev = Evaluator(model)
    masks = [ev.mask(a) for a in atoms]
    return [
        tuple(bool(m >> i & 1) for m in masks) for i in range(len(model.team))
    ]


def atom_agreement(
    left: DependenceModel, right: DependenceModel, omega: OmegaProfile
) -> BisimRelation:
    """Stage-0 relation: pairs agreeing on the whole canonical family."""
    rel, _ = _atom_agreement_with_witnesses(left, right, omega)
    return rel


def _atom_agreement_with_witnesses(left, right, omega):
    if left.ftype != right.ftype:
        raise ModelError("bisimulation requires identical types")
    atoms = canonical_atoms(left.ftype, omega)
    lt = atom_truth_table(left, atoms)
    rt = atom_truth_table(right, atoms)
    pairs = set()
    witnesses: dict[tuple[int, int], FailureWitness] = {}
    for i, lv in enumerate(lt):
        for j, rv in enumerate(rt):
            if lv == rv:
                pairs.add((i, j))
            else:
                k = next(k for k in range(len(atoms)) if lv[k] != rv[k])
                witnesses[(i, j)] = FailureWitness((i, j), 0, "atom", atoms[k])
    return BisimRelation(frozenset(pairs), 0), witnesses


def refine_step(
    Z: BisimRelation, left: DependenceModel, right: DependenceModel
) -> BisimRelation:
    """One back-and-forth refinement round."""
    rel, _ = _refine_with_witnesses(Z, left, right)
    return rel


def _refine_with_witnesses(Z, left, right):
    ftype = left.ftype
    lt, rt = left.team, right.team
    pairs = set()
    witnesses: dict[tuple[int, int], FailureWitness] = {}
    for (i, j) in Z.pairs:
        s, sp = lt[i], rt[j]
        fail = None
        for a, t in enumerate(lt):
            X = comvar(t, s, ftype)
            if not any(
                (a, b) in Z.pairs and comvar_superset(rt[b], sp, ftype, X)
                for b in range(len(rt))
            ):
                fail = FailureWitness((i, j), Z.stage + 1, "forth", (a, X))
                break
        if fail is None:
            for b, tp in enumerate(rt):
                X = comvar(tp, sp, ftype)
                if not any(
                    (a, b) in Z.pairs and comvar_superset(lt[a], s, ftype, X)
                    for a in range(len(lt))
                ):
                    fail = FailureWitness((i, j), Z.stage + 1, "back", (b, X))
                    break
        if fail is None:
            pairs.add((i, j))
        else:
            witnesses[(i, j)] = fail
    return BisimRelation(frozenset(pairs), Z.stage + 1), witnesses


def comvar_superset(
    t: Assignment, s: Assignment, ftype: FiniteType, X: Iterable[str]
) -> bool:
    """Whether t agrees with s on every variable in X."""
    return all(t[ftype.index(x)] == s[ftype.index(x)] for x in X)


@dataclass(frozen=True)
class BisimResult:
    related: bool
    relation: BisimRelation
    witness: FailureWitness | None


def bisimilarity(
    left: PointedModel,
    right: PointedModel,
    omega: OmegaProfile,
    depth: int | None = None,
) -> BisimResult:
    """Iterate refinement from atom agreement for ``depth`` rounds, or to
    the fixpoint when ``depth`` is None, then query the two points."""
    lm, rm = left.model, right.model
    i = lm.row_index(left.at)
    j = rm.row_index(right.at)
    Z, witnesses = _atom_agreement_with_witnesses(lm, rm, omega)
    removed: dict[tuple[int, int], FailureWitness] = dict(witnesses)
    stage = 0
    while depth is None or stage < depth:
        nxt, wit = _refine_with_witnesses(Z, lm, rm)
        removed.update(wit)
        if nxt.pairs == Z.pairs:
            Z = BisimRelation(nxt.pairs, Z.stage, fixpoint=True)
            break
        Z = nxt
        stage += 1
    related = Z.relates(i, j)
    return BisimResult(related, Z, None if related else removed.get((i, j)))


def check_is_bisimulation(
    pairs: Iterable[tuple[int, int]],
    left: DependenceModel,
    right: DependenceModel,
    omega: OmegaProfile,
) -> tuple[bool, FailureWitness | None]:
    """Verify an explicitly given relation against the bisimulation
    conditions: atom agreement plus back and forth with partners inside the
    relation itself."""
    Z = BisimRelation(frozenset(pairs), 0)
    for (i, j) in Z.pairs:
        if not (0 <= i < len(left.team) and 0 <= j < len(right.team)):
            raise ModelError(f"pair {(i, j)} outside the team index ranges")
    atoms = canonical_atoms(left.ftype, omega)
    lt = atom_truth_table(left, atoms)
    rt = atom_truth_table(right, atoms)
    for (i, j) in Z.pairs:
        if lt[i] != rt[j]:
            k = next(k for k in range(len(atoms)) if lt[i][k] != rt[j][k])
            return False, FailureWitness((i, j), 0, "atom", atoms[k])
    refined, witnesses = _refine_with_witnesses(Z, left, right)
    if refined.pairs != Z.pairs:
        bad = next(iter(Z.pairs - refined.pairs))
        return False, witnesses[bad]
    return True, None
