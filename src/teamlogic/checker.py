"""Model checking for local team logics.

A formula is evaluated at every team row at once: each subformula yields a
row bitset, bit i set iff it holds at team row i.  Quantifier blocks are
the team's partition by agreement on a variable set, the relativisation
``fo.standard_translation`` writes with the team predicate.  An atom sees
a row only through its projections, so it is decided once per distinct
projected value, over cached partitions by ordered column tuples.  An
:class:`Evaluator` caches partitions, atom and subformula bitsets to share
work across queries on one model; ``check`` uses a fresh one per call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .model import Assignment, DependenceModel
from .syntax import (
    And,
    Anon,
    ATOM_TYPES,
    Dep,
    Eq,
    Excl,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Incl,
    Ind,
    Not,
    Or,
    RelLit,
    is_nnf,
)


@dataclass
class CheckStats:
    """Work done by an :class:`Evaluator`: ``atom_evals`` atom nodes and
    ``quantifier_expansions`` quantifier nodes evaluated, ``memo_hits``
    node lookups answered from the memo, and ``partitions`` distinct
    column tuples the team was partitioned on."""

    atom_evals: int = 0
    quantifier_expansions: int = 0
    memo_hits: int = 0
    partitions: int = 0


@dataclass(frozen=True)
class CheckResult:
    value: bool
    stats: CheckStats


class Evaluator:
    """Team-at-once evaluator bound to one model.  Safe to reuse across many
    formulas: row bitsets are memoized by subformula identity, and atom
    bitsets also by the atom itself, so shared or repeated parts share work."""

    def __init__(self, model: DependenceModel):
        self.model = model
        self.stats = CheckStats()
        #: the bitset of the whole team
        self.full = (1 << len(model.team)) - 1
        # keyed by id(node); the value keeps the node alive so that its id
        # is not recycled while the entry exists
        self._memo: dict[int, tuple[Formula, int]] = {}
        self._atoms: dict[Formula, int] = {}
        self._columns = list(zip(*model.team))
        self._sorted_cols: dict[tuple[str, ...], tuple[int, ...]] = {}
        self._partitions: dict[tuple[int, ...], dict[tuple[str, ...], int]] = {}

    def truth(self, phi: Formula, s: Assignment) -> bool:
        return bool(self.mask(phi) >> self.model.row_index(s) & 1)

    def truth_rows(self, phi: Formula) -> list[bool]:
        """Truth value at every team row, in team order."""
        bits = format(self.mask(phi), f"0{len(self.model.team)}b")
        return [b == "1" for b in reversed(bits)]

    def blocks(self, xs: Iterable[str]) -> dict[tuple[str, ...], int]:
        """The partition of the team by agreement on the variable set
        ``xs``: the values on ``xs``, in the type's variable order, mapped
        to the bitset of the rows carrying them."""
        return self._partition(self._cols(tuple(xs)))

    def _cols(self, xs: tuple[str, ...]) -> tuple[int, ...]:
        cols = self._sorted_cols.get(xs)
        if cols is None:
            index = self.model.ftype.index
            cols = self._sorted_cols[xs] = tuple(sorted({index(x) for x in xs}))
        return cols

    def _partition(self, cols: tuple[int, ...]) -> dict[tuple[str, ...], int]:
        """The bitset of the rows with each value tuple on ``cols``, an
        ordered column tuple that may repeat a column."""
        got = self._partitions.get(cols)
        if got is None:
            self.stats.partitions += 1
            got = self._partitions[cols] = {} if cols else {(): self.full}
            for i, key in enumerate(zip(*map(self._columns.__getitem__, cols))):
                got[key] = got.get(key, 0) | 1 << i
        return got

    def mask(self, phi: Formula) -> int:
        """The bitset of the team rows at which ``phi`` holds."""
        hit = self._memo.get(id(phi))
        if hit is not None:
            self.stats.memo_hits += 1
            return hit[1]
        if isinstance(phi, And):
            m = self.full
            for part in phi.parts:
                m &= self.mask(part)
                if not m:
                    break
        elif isinstance(phi, Or):
            m = 0
            for part in phi.parts:
                m |= self.mask(part)
                if m == self.full:
                    break
        elif isinstance(phi, (Exists, Forall)):
            self.stats.quantifier_expansions += 1
            body = self.mask(phi.body)
            blocks = self.blocks(phi.fixed).values()
            if isinstance(phi, Exists):
                m = sum(b for b in blocks if b & body)
            else:
                m = sum(b for b in blocks if b & body == b)
        elif isinstance(phi, ATOM_TYPES):
            self.stats.atom_evals += 1
            m = self._atoms.get(phi)
            if m is None:
                m = self._atom(phi)
                if phi.negative:
                    m ^= self.full
                self._atoms[phi] = m
        elif isinstance(phi, Not):
            raise FormulaError("checker requires a Not-free formula")
        else:
            raise FormulaError(f"unknown formula node {type(phi).__name__}")
        self._memo[id(phi)] = (phi, m)
        return m

    def _atom(self, beta: Formula) -> int:
        """The bitset of a relational literal or a local atom, except that
        a negative atom gets the bitset of its dual, which :meth:`mask`
        complements.  Each atom is decided once per distinct value of the
        projections it reads."""
        index = self.model.ftype.index
        t = beta.dual if beta.negative else type(beta)
        if t is RelLit:
            part = self._partition(tuple(map(index, beta.args)))
            holds, rel = self.model.structure.holds, beta.rel
            return sum(b for k, b in part.items() if holds(rel, k) == beta.positive)
        if t is Eq:
            part = self._partition((index(beta.left), index(beta.right)))
            return sum(b for (u, v), b in part.items() if u == v)
        if t is Dep:
            # an X-block is constant on y iff it is also an (X + y)-block
            finer = set(self.blocks(beta.over + (beta.target,)).values())
            return sum(b for b in self.blocks(beta.over).values() if b in finer)
        if t is Incl:
            values = self._partition(tuple(map(index, beta.right)))
            left = self._partition(tuple(map(index, beta.left)))
            return sum(b for key, b in left.items() if key in values)
        # Ind: an l-block must realise every r-value of the team
        lc, rc = self._cols(beta.left), self._cols(beta.right)
        per_left = Counter(key[: len(lc)] for key in self._partition(lc + rc))
        want = len(self._partition(rc))
        left = self._partition(lc)
        return sum(b for key, b in left.items() if per_left[key] == want)


def _local_atom(beta: Formula) -> Formula:
    if not isinstance(beta, ATOM_TYPES):
        raise FormulaError(f"not a local atom: {type(beta).__name__}")
    return beta


def eval_local_atom(beta: Formula, model: DependenceModel, s: Assignment) -> bool:
    """Truth of a single local atom (or literal) at one team row."""
    return Evaluator(model).truth(_local_atom(beta), s)


def check(phi: Formula, model: DependenceModel, s: Assignment) -> CheckResult:
    """Whether ``phi`` holds at assignment ``s`` of the model."""
    if not is_nnf(phi):
        raise FormulaError("checker requires a Not-free formula")
    ev = Evaluator(model)
    value = ev.truth(phi, s)
    return CheckResult(value, ev.stats)


def extension(beta: Formula, model: DependenceModel) -> tuple[Assignment, ...]:
    """The team assignments at which a local atom holds, in team order."""
    m = Evaluator(model).mask(_local_atom(beta))
    return tuple(s for i, s in enumerate(model.team) if m >> i & 1)


def check_global_atom(beta: Formula, model: DependenceModel) -> bool:
    """Truth of the global (team-level) variant of a local atom, defined as
    the universal closure ``A[] beta``: the local atom holds at every row."""
    if not isinstance(beta, (Dep, Anon, Incl, Excl, Ind)):
        raise FormulaError(f"no global variant for {type(beta).__name__}")
    ev = Evaluator(model)
    return ev.mask(beta) == ev.full
