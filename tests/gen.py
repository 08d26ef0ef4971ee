"""Shared fixtures and random generators for the test suite.

All generators take an explicit random.Random so test populations are
reproducible from fixed seeds.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, product

from teamlogic import (
    And,
    Anon,
    Dep,
    DependenceModel,
    Eq,
    Excl,
    Exists,
    FiniteType,
    Forall,
    Formula,
    Incl,
    Ind,
    Neq,
    NInd,
    Not,
    OmegaProfile,
    Or,
    RelLit,
    Structure,
)
from teamlogic.syntax import (
    KIND_D,
    KIND_EQ,
    KIND_IN,
    KIND_IND,
    KIND_NEQ,
    KIND_NIND,
    KIND_NOTIN,
    KIND_Y,
)

DUAL_PAIRS = (
    frozenset({KIND_D, KIND_Y}),
    frozenset({KIND_EQ, KIND_NEQ}),
    frozenset({KIND_IN, KIND_NOTIN}),
    frozenset({KIND_IND, KIND_NIND}),
)

TUPLE_KINDS = frozenset({KIND_IN, KIND_NOTIN, KIND_IND, KIND_NIND})


# ---------------------------------------------------------------------------
# reference oracles


def subsets(xs):
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def naive_refine(Z, left, right):
    """Reference refinement checking every subset of the common variables,
    straight from the definition."""
    from teamlogic import comvar

    ftype = left.ftype
    keep = set()
    for (i, j) in Z.pairs:
        s, sp = left.team[i], right.team[j]

        def forth_ok():
            for a, t in enumerate(left.team):
                for X in subsets(comvar(t, s, ftype)):
                    if not any(
                        (a, b) in Z.pairs and right.agree(right.team[b], sp, X)
                        for b in range(len(right.team))
                    ):
                        return False
            return True

        def back_ok():
            for b, tp in enumerate(right.team):
                for X in subsets(comvar(tp, sp, ftype)):
                    if not any(
                        (a, b) in Z.pairs and left.agree(left.team[a], s, X)
                        for a in range(len(left.team))
                    ):
                        return False
            return True

        if forth_ok() and back_ok():
            keep.add((i, j))
    return frozenset(keep)


# precedence levels: 0 = disjunction context, 1 = conjunction, 2 = unit
def reference_print(phi: Formula, level: int = 0) -> str:
    """The recursive tree printer that ``print_formula`` replaced: it renders
    a shared subformula once per use, and its depth is bounded by the
    recursion limit."""
    p = reference_print
    if isinstance(phi, Or):
        s = f"{p(phi.left, 0)} | {p(phi.right, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(phi, And):
        s = f"{p(phi.left, 1)} & {p(phi.right, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(phi, Forall):
        return f"A[{' '.join(phi.fixed)}] {p(phi.body, 2)}"
    if isinstance(phi, Exists):
        return f"E[{' '.join(phi.fixed)}] {p(phi.body, 2)}"
    if isinstance(phi, Not):
        return f"not {p(phi.body, 2)}"
    if isinstance(phi, RelLit):
        bang = "" if phi.positive else "!"
        return f"{bang}{phi.rel}({' '.join(phi.args)})"
    if isinstance(phi, Eq):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, Neq):
        return f"{phi.left} != {phi.right}"
    if isinstance(phi, Dep):
        return f"D[{' '.join(phi.over)}] {phi.target}"
    if isinstance(phi, Anon):
        return f"Y[{' '.join(phi.over)}] {phi.target}"
    if isinstance(phi, Incl):
        return f"in({' '.join(phi.left)} ; {' '.join(phi.right)})"
    if isinstance(phi, Excl):
        return f"notin({' '.join(phi.left)} ; {' '.join(phi.right)})"
    if isinstance(phi, Ind):
        return f"Ind[{' '.join(phi.left)}]({' '.join(phi.right)})"
    if isinstance(phi, NInd):
        return f"nInd[{' '.join(phi.left)}]({' '.join(phi.right)})"
    raise TypeError(f"unknown formula node {type(phi).__name__}")


# ---------------------------------------------------------------------------
# worked example fixtures


def ex_local_dep() -> DependenceModel:
    ftype = FiniteType((), ("x", "y", "z"))
    structure = Structure(("0", "1", "2"), {})
    team = (("0", "0", "0"), ("1", "1", "0"), ("1", "2", "1"), ("2", "2", "1"))
    return DependenceModel(ftype, structure, team)


def ex_inc() -> tuple[DependenceModel, DependenceModel, set[tuple[int, int]]]:
    """Two pointed models bisimilar for the {D, Y, =, !=} profile although
    they disagree on global inclusion of x in y."""
    ftype = FiniteType((), ("x", "y"))
    left = DependenceModel(
        ftype, Structure(("a", "b"), {}), (("a", "b"), ("b", "a"))
    )
    right = DependenceModel(
        ftype, Structure(("0", "1", "2"), {}), (("1", "2"), ("2", "0"))
    )
    relation = {(0, 0), (1, 1)}
    return left, right, relation


def notgf2() -> tuple[DependenceModel, DependenceModel, set[tuple[int, int]]]:
    """Teams bisimilar for {D, Y} whose modal structures disagree on the
    two-variable guarded sentence "every x-neighbour is a y- or
    z-neighbour".  Left rows: s, t1, t2.  Right rows: s', s'', t1', t2',
    t2''.  The sentence holds at s but fails at s' (row t2'' agrees with
    s' on x only)."""
    ftype = FiniteType((), ("x", "y", "z"))
    left = DependenceModel(
        ftype,
        Structure(("0", "1"), {}),
        (("0", "0", "0"), ("0", "0", "1"), ("0", "1", "0")),
    )
    right = DependenceModel(
        ftype,
        Structure(("0", "1", "2"), {}),
        (
            ("0", "0", "0"),
            ("0", "0", "1"),
            ("0", "0", "2"),
            ("0", "1", "0"),
            ("0", "2", "1"),
        ),
    )
    relation = {(0, 0), (0, 1), (1, 2), (2, 3), (2, 4)}
    return left, right, relation


# ---------------------------------------------------------------------------
# random populations


def random_model(
    rng: random.Random,
    max_universe: int = 3,
    max_vars: int = 3,
    max_team: int = 6,
    with_relations: bool = True,
) -> DependenceModel:
    n_elems = rng.randint(1, max_universe)
    universe = tuple(str(i) for i in range(n_elems))
    n_vars = rng.randint(1, max_vars)
    variables = ("x", "y", "z")[:n_vars]
    relations: list[tuple[str, int]] = []
    interps: dict[str, frozenset[tuple[str, ...]]] = {}
    if with_relations:
        for name, ar in (("P", 1), ("E", 2)):
            if rng.random() < 0.7:
                relations.append((name, ar))
                space = list(product(universe, repeat=ar))
                interps[name] = frozenset(
                    row for row in space if rng.random() < 0.5
                )
    ftype = FiniteType(tuple(relations), variables)
    space = list(product(universe, repeat=n_vars))
    size = rng.randint(1, min(max_team, len(space)))
    team = tuple(rng.sample(space, size))
    return DependenceModel(ftype, Structure(universe, interps), team)


def random_model_of_type(
    rng: random.Random,
    ftype: FiniteType,
    max_universe: int = 3,
    max_team: int = 4,
) -> DependenceModel:
    """A random model sharing an existing type, for bisimulation pairs."""
    n_elems = rng.randint(1, max_universe)
    universe = tuple(str(i) for i in range(n_elems))
    interps = {
        name: frozenset(
            row
            for row in product(universe, repeat=ar)
            if rng.random() < 0.5
        )
        for name, ar in ftype.relations
    }
    space = list(product(universe, repeat=len(ftype.variables)))
    size = rng.randint(1, min(max_team, len(space)))
    team = tuple(rng.sample(space, size))
    return DependenceModel(ftype, Structure(universe, interps), team)


def random_omega(rng: random.Random, tuple_ok: bool = True) -> OmegaProfile:
    """A random nonempty negation-closed profile, built from dual pairs."""
    pairs = [p for p in DUAL_PAIRS if tuple_ok or not (p & TUPLE_KINDS)]
    chosen = [p for p in pairs if rng.random() < 0.5]
    if not chosen:
        chosen = [rng.choice(pairs)]
    kinds: frozenset[str] = frozenset()
    for p in chosen:
        kinds |= p
    return OmegaProfile(kinds)


def _random_tuple_pair(
    rng: random.Random, variables: tuple[str, ...]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    r = rng.randint(1, len(variables))
    left = tuple(rng.sample(variables, r))
    right = tuple(rng.sample(variables, r))
    return left, right


def random_atom(
    rng: random.Random, ftype: FiniteType, omega: OmegaProfile
) -> Formula:
    vs = ftype.variables
    options: list[str] = sorted(omega.kinds)
    if ftype.relations:
        options.extend(["rel", "rel"])
    kind = rng.choice(options)
    if kind == "rel":
        rel, ar = rng.choice(ftype.relations)
        args = tuple(rng.choice(vs) for _ in range(ar))
        return RelLit(rng.random() < 0.7, rel, args)
    if kind in (KIND_D, KIND_Y):
        over = ftype.varset(v for v in vs if rng.random() < 0.4)
        target = rng.choice(vs)
        return Dep(over, target) if kind == KIND_D else Anon(over, target)
    if kind in (KIND_EQ, KIND_NEQ):
        a, b = rng.choice(vs), rng.choice(vs)
        return Eq(a, b) if kind == KIND_EQ else Neq(a, b)
    left, right = _random_tuple_pair(rng, vs)
    ctor = {KIND_IN: Incl, KIND_NOTIN: Excl, KIND_IND: Ind, KIND_NIND: NInd}[kind]
    return ctor(left, right)


def random_formula(
    rng: random.Random,
    ftype: FiniteType,
    omega: OmegaProfile,
    rank: int,
    size: int = 6,
) -> Formula:
    """A random Not-free formula with quantifier rank at most ``rank``."""
    if size <= 1:
        return random_atom(rng, ftype, omega)
    roll = rng.random()
    if rank > 0 and roll < 0.4:
        fixed = ftype.varset(v for v in ftype.variables if rng.random() < 0.4)
        body = random_formula(rng, ftype, omega, rank - 1, size - 1)
        ctor = Forall if rng.random() < 0.5 else Exists
        return ctor(fixed, body)
    if roll < 0.8:
        split = rng.randint(1, size - 1)
        left = random_formula(rng, ftype, omega, rank, split)
        right = random_formula(rng, ftype, omega, rank, size - split)
        ctor = And if rng.random() < 0.5 else Or
        return ctor(left, right)
    return random_atom(rng, ftype, omega)
