"""Finite-stage bisimulation between dependence models by partition
refinement, with replayable failure witnesses.

Two teams of one type make a multi-relational Kripke model over the rows of
both, whose relations are the agreement equivalences ~X for the variable
sets X.  Bisimilarity is computed on one partition of these rows, left rows
first.  Stage 0 groups the rows by their truth vector on a finite canonical
atom family: the relational atoms, then, for each dual pair of
``syntax.ATOM_PAIRS`` in turn, the atoms of the pair's enabled kinds over
one argument family per pair.  The stage-(k+1) signature of a row is its stage-k class
together with, for every X, the set of stage-k classes in its X-block of
its own team, and rows with equal signatures share a class.  A left and a
right row are k-bisimilar exactly when they share a stage-k class: equal
class sets on every X-block are the back and forth conditions, since a
partner agreeing on the maximal common variable set agrees on each subset.
A round costs O(2^|V| (n + m)) set operations for n and m rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Iterable, Union

from .checker import Evaluator
from .model import Assignment, DependenceModel, ModelError, PointedModel
from .syntax import (
    ATOM_PAIRS,
    Dep,
    Eq,
    FiniteType,
    Formula,
    Incl,
    Ind,
    OmegaProfile,
    RelLit,
)


@dataclass(frozen=True)
class BisimRelation:
    """A set of (left row index, right row index) pairs produced at a
    refinement stage.  A relation built by refinement also carries
    ``classes``, the stage's class of every row of both teams, left rows
    first; :func:`refine_step` refines those classes."""

    pairs: frozenset[tuple[int, int]]
    stage: int
    fixpoint: bool = False
    classes: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

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
    for rel, ar in ftype.relations:
        for args in product(vs, repeat=ar):
            atoms.append(RelLit(True, rel, args))
    tuple_pairs = [
        (xs, ys)
        for r in range(1, len(vs) + 1)
        for xs in permutations(vs, r)
        for ys in permutations(vs, r)
    ]
    # the arguments of the atoms of each dual pair, keyed by its first atom
    family = {
        Dep: [
            (X, y) for r in range(len(vs) + 1) for X in combinations(vs, r) for y in vs
        ],
        Eq: list(combinations(vs, 2)),
        Incl: tuple_pairs,
        Ind: tuple_pairs,
    }
    for pair in ATOM_PAIRS:
        for cls in pair:
            if cls.kind in omega:
                atoms.extend(cls(*args) for args in family[pair[0]])
    return atoms


class _Rows:
    """The rows of two teams of one type, numbered left rows first, with
    the X-blocks of both teams for every variable set X."""

    def __init__(self, left: DependenceModel, right: DependenceModel):
        if left.ftype != right.ftype:
            raise ModelError("bisimulation requires identical types")
        self.left, self.right = left, right
        self.nl = len(left.team)
        self.evaluators = (Evaluator(left), Evaluator(right))
        vs = left.ftype.variables
        self.subsets = [c for r in range(len(vs) + 1) for c in combinations(vs, r)]
        #: per variable set: its blocks in both teams, as (bitset over the
        #: block's own team, row numbers), and each row's block index
        self.blocks: dict[tuple[str, ...], list[tuple[int, list[int]]]] = {}
        self.block_of: dict[tuple[str, ...], list[int]] = {}
        n = self.nl + len(right.team)
        for X in self.subsets:
            blocks, block_of = [], [0] * n
            for ev, offset in zip(self.evaluators, (0, self.nl)):
                for bits in ev.blocks(X).values():
                    rows = [offset + r for r in _members(bits)]
                    for r in rows:
                        block_of[r] = len(blocks)
                    blocks.append((bits, rows))
            self.blocks[X], self.block_of[X] = blocks, block_of

    def block(self, X: tuple[str, ...], r: int) -> tuple[int, list[int]]:
        """The X-block of row number ``r``."""
        return self.blocks[X][self.block_of[X][r]]

    def truth_vectors(self, atoms: list[Formula]) -> list[str]:
        """Per row, its truth vector on the atoms as a string of bits."""
        vectors = []
        for ev in self.evaluators:
            n = len(ev.model.team)
            columns = [format(ev.mask(a), f"0{n}b")[::-1] for a in atoms]
            vectors += map("".join, zip(*columns)) if columns else [""] * n
        return vectors

    def refine(self, classes: tuple[int, ...]) -> tuple[int, ...]:
        """The next stage's classes: rows share a class when they share a
        class now and, for every X, their X-blocks meet the same classes."""
        columns = [classes]
        for X in self.subsets:
            met = [
                frozenset(map(classes.__getitem__, rows)) for _, rows in self.blocks[X]
            ]
            columns.append(map(met.__getitem__, self.block_of[X]))
        return _number(zip(*columns))

    def cross(self, classes: tuple[int, ...]) -> int:
        """The number of (left row, right row) pairs sharing a class."""
        left = Counter(classes[: self.nl])
        right = Counter(classes[self.nl :])
        return sum(k * right[c] for c, k in left.items())

    def relation(
        self, classes: tuple[int, ...], stage: int, fixpoint: bool = False
    ) -> BisimRelation:
        """The (left row, right row) pairs sharing a class."""
        by_class: dict[int, list[int]] = {}
        for j, c in enumerate(classes[self.nl :]):
            by_class.setdefault(c, []).append(j)
        pairs = frozenset(
            (i, j) for i in range(self.nl) for j in by_class.get(classes[i], ())
        )
        return BisimRelation(pairs, stage, fixpoint, classes)

    def atom_witness(
        self, atoms: list[Formula], vectors: list[str], i: int, j: int
    ) -> FailureWitness:
        """The first atom on which left row i and right row j disagree."""
        pairs = enumerate(zip(vectors[i], vectors[self.nl + j]))
        k = next(k for k, (a, b) in pairs if a != b)
        return FailureWitness((i, j), 0, "atom", atoms[k])

    def split(
        self, classes: tuple[int, ...], i: int, j: int, stage: int
    ) -> FailureWitness:
        """Why left row i and right row j, in one class at ``classes``, are
        apart at the next stage ``stage``: the first X whose blocks meet
        different classes, and a row of a class met on one side only.  Every
        row of the other side agreeing with the pair's row on the
        challenger's common variables lies in that X-block, so none is a
        partner."""
        lt, rt, ftype = self.left.team, self.right.team, self.left.ftype
        J = self.nl + j
        for X in self.subsets:
            lrows, rrows = self.block(X, i)[1], self.block(X, J)[1]
            lmet = {classes[r] for r in lrows}
            rmet = {classes[r] for r in rrows}
            if lmet != rmet:
                break
        for a in lrows:
            if classes[a] not in rmet:
                detail = (a, comvar(lt[a], lt[i], ftype))
                return FailureWitness((i, j), stage, "forth", detail)
        b = next(r - self.nl for r in rrows if classes[r] not in lmet)
        return FailureWitness((i, j), stage, "back", (b, comvar(rt[b], rt[j], ftype)))


def _members(bits: int) -> Iterable[int]:
    """The positions of the set bits, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _number(signatures: Iterable) -> tuple[int, ...]:
    """Number equal signatures alike, in order of first occurrence."""
    ids: dict = {}
    return tuple(ids.setdefault(s, len(ids)) for s in signatures)


def atom_agreement(
    left: DependenceModel, right: DependenceModel, omega: OmegaProfile
) -> BisimRelation:
    """Stage-0 relation: pairs agreeing on the whole canonical family."""
    rows = _Rows(left, right)
    vectors = rows.truth_vectors(canonical_atoms(left.ftype, omega))
    return rows.relation(_number(vectors), 0)


def refine_step(
    Z: BisimRelation, left: DependenceModel, right: DependenceModel
) -> BisimRelation:
    """One back-and-forth refinement round of a relation built by
    :func:`atom_agreement` or :func:`refine_step` on the same models."""
    if Z.classes is None or len(Z.classes) != len(left.team) + len(right.team):
        raise ModelError("refine_step needs the classes of a refinement stage")
    rows = _Rows(left, right)
    return rows.relation(rows.refine(Z.classes), Z.stage + 1)


@dataclass(frozen=True)
class BisimResult:
    """The verdict at the queried pair, the relation at the final stage,
    why the pair is not related (or None), and the number of classes over
    the rows of both teams at each stage 0..``relation.stage``."""

    related: bool
    relation: BisimRelation
    witness: FailureWitness | None
    class_counts: tuple[int, ...]


def bisimilarity(
    left: PointedModel,
    right: PointedModel,
    omega: OmegaProfile,
    depth: int | None = None,
) -> BisimResult:
    """Iterate refinement from atom agreement for ``depth`` rounds, or to
    the fixpoint when ``depth`` is None, then query the two points.  The
    fixpoint is the first stage whose relation the next round keeps."""
    lm, rm = left.model, right.model
    i = lm.row_index(left.at)
    j = rm.row_index(right.at)
    rows = _Rows(lm, rm)
    atoms = canonical_atoms(lm.ftype, omega)
    vectors = rows.truth_vectors(atoms)
    stages = [_number(vectors)]
    cross = rows.cross(stages[0])
    fixpoint = False
    while depth is None or len(stages) <= depth:
        nxt = rows.refine(stages[-1])
        # classes inside one team may still split once the cross relation
        # is stable; the relation is what has to be stable
        nxt_cross = rows.cross(nxt)
        if nxt_cross == cross:
            fixpoint = True
            break
        stages.append(nxt)
        cross = nxt_cross
    Z = rows.relation(stages[-1], len(stages) - 1, fixpoint)
    counts = tuple(len(set(classes)) for classes in stages)
    J = rows.nl + j
    if Z.relates(i, j):
        return BisimResult(True, Z, None, counts)
    k = next(k for k, classes in enumerate(stages) if classes[i] != classes[J])
    if k == 0:
        witness = rows.atom_witness(atoms, vectors, i, j)
    else:
        witness = rows.split(stages[k - 1], i, j, k)
    return BisimResult(False, Z, witness, counts)


def check_is_bisimulation(
    pairs: Iterable[tuple[int, int]],
    left: DependenceModel,
    right: DependenceModel,
    omega: OmegaProfile,
) -> tuple[bool, FailureWitness | None]:
    """Verify an explicitly given relation against the bisimulation
    conditions: atom agreement plus back and forth with partners inside the
    relation itself.  The relation need not be an equivalence, so it is
    checked pair by pair on bitsets of partners."""
    Z = sorted(set(pairs))
    nl, nr = len(left.team), len(right.team)
    for (i, j) in Z:
        if not (0 <= i < nl and 0 <= j < nr):
            raise ModelError(f"pair {(i, j)} outside the team index ranges")
    rows = _Rows(left, right)
    atoms = canonical_atoms(left.ftype, omega)
    vectors = rows.truth_vectors(atoms)
    for (i, j) in Z:
        if vectors[i] != vectors[nl + j]:
            return False, rows.atom_witness(atoms, vectors, i, j)
    # partners[r]: the bitset of the rows of the other team related to row r
    partners = [0] * (nl + nr)
    for (i, j) in Z:
        partners[i] |= 1 << j
        partners[nl + j] |= 1 << i
    lt, rt, ftype = left.team, right.team, left.ftype
    for (i, j) in Z:
        for a in range(nl):
            X = comvar(lt[a], lt[i], ftype)
            if not partners[a] & rows.block(X, nl + j)[0]:
                return False, FailureWitness((i, j), 1, "forth", (a, X))
        for b in range(nr):
            X = comvar(rt[b], rt[j], ftype)
            if not partners[nl + b] & rows.block(X, i)[0]:
                return False, FailureWitness((i, j), 1, "back", (b, X))
    return True, None
