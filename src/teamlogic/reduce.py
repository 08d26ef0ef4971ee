"""Reductions between classical prefix-class sentences and local team
logic, plus the tuple-atom elimination for variable-distinguished teams.

A Kahr sentence is an equality-free forall-exists-forall sentence with one
binary relation and any number of monadic relations.  It is encoded as a
four-variable formula whose only local atoms are one dependence atom and
six inclusion atoms (or, in the equality variant, six existentially
guarded equalities).  The six "copy rules" shuffle values between the
variables x, y, z and the scratch variable v so that a satisfying team
must contain a full cartesian product in its (x,z) columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from . import fo
from .checker import Evaluator
from .model import DEFAULT_MAX_TEAM, DependenceModel, Structure
from .syntax import (
    And,
    Anon,
    Dep,
    Eq,
    Excl,
    Exists,
    FiniteType,
    Forall,
    Formula,
    FormulaError,
    Incl,
    Neq,
    Or,
    RelLit,
    conj,
    parse_formula,
    to_nnf,
    validate,
)


class ReduceError(Exception):
    """Raised on malformed Kahr input or failed reduction preconditions."""


MATRIX_VARS = ("x", "y", "z")
REDUCTION_VARS = ("x", "y", "z", "v")

# the six copy rules, as inclusion atoms over (x,y,z,v)
_INCL_RULES = (
    (("x", "x"), ("x", "z")),
    (("y", "y", "v"), ("y", "z", "v")),
    (("x", "z", "x"), ("x", "z", "v")),
    (("y", "z", "y"), ("y", "z", "v")),
    (("z", "z", "v"), ("x", "z", "v")),
    (("v", "z", "v"), ("x", "z", "v")),
)

# the same rules as guarded equalities: fix the guard set, then some team
# row realizes the equality
_EQ_RULES = (
    (("x",), "x", "z"),
    (("y", "v"), "y", "z"),
    (("x", "z"), "x", "v"),
    (("y", "z"), "y", "v"),
    (("z", "v"), "z", "x"),
    (("z", "v"), "v", "x"),
)


@dataclass(frozen=True)
class KahrSentence:
    """forall x exists y forall z  matrix(x,y,z): one binary relation,
    monadic relations, no equality."""

    binary: str
    monadics: tuple[str, ...]
    matrix: Formula

    def __post_init__(self):
        names = (self.binary,) + self.monadics
        if len(set(names)) != len(names):
            raise ReduceError("duplicate relation name")
        _check_matrix(self.matrix)
        validate(self.matrix, self.matrix_type())

    def matrix_type(self) -> FiniteType:
        rels = ((self.binary, 2),) + tuple((m, 1) for m in self.monadics)
        return FiniteType(rels, MATRIX_VARS)

    def reduction_type(self) -> FiniteType:
        rels = ((self.binary, 2),) + tuple((m, 1) for m in self.monadics)
        return FiniteType(rels, REDUCTION_VARS)


def _check_matrix(phi: Formula) -> None:
    if isinstance(phi, RelLit):
        return
    if isinstance(phi, (And, Or)):
        for part in phi.parts:
            _check_matrix(part)
        return
    if isinstance(phi, (Eq, Neq)):
        raise ReduceError("equality is not allowed in the matrix")
    raise ReduceError(
        f"matrix must be quantifier-free relational, found {type(phi).__name__}"
    )


def parse_kahr(text: str) -> KahrSentence:
    """Parse the line-oriented .kahr format: a `binary` line, an optional
    `monadic` line, and a `matrix` line, in that order."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    binary: str | None = None
    monadics: tuple[str, ...] = ()
    matrix_text: str | None = None
    for ln in lines:
        head, _, rest = ln.partition(" ")
        rest = rest.strip()
        if head == "binary":
            if binary is not None:
                raise ReduceError("duplicate binary line")
            if len(rest.split()) != 1:
                raise ReduceError("binary expects exactly one relation name")
            binary = rest
        elif head == "monadic":
            monadics = tuple(rest.split())
        elif head == "matrix":
            if binary is None:
                raise ReduceError("matrix line before binary line")
            matrix_text = rest
        else:
            raise ReduceError(f"unknown directive {head!r}")
    if binary is None:
        raise ReduceError("missing binary line")
    if matrix_text is None:
        raise ReduceError("missing matrix line")
    rels = ((binary, 2),) + tuple((m, 1) for m in monadics)
    ftype = FiniteType(rels, MATRIX_VARS)
    try:
        raw = parse_formula(matrix_text, ftype)
    except FormulaError as e:
        raise ReduceError(str(e)) from None
    return KahrSentence(binary, monadics, to_nnf(raw))


def reduce_to_inclusion(psi: KahrSentence) -> Formula:
    """The encoding using one dependence atom and six inclusion atoms."""
    parts: list[Formula] = [
        Forall((), psi.matrix),
        Forall((), Dep(("x",), "y")),
    ]
    parts.extend(Forall((), Incl(l, r)) for l, r in _INCL_RULES)
    out = conj(parts)
    validate(out, psi.reduction_type())
    return out


def reduce_to_equality(psi: KahrSentence) -> Formula:
    """The encoding using one dependence atom and six guarded equalities."""
    parts: list[Formula] = [
        Forall((), psi.matrix),
        Forall((), Dep(("x",), "y")),
    ]
    parts.extend(
        Forall((), Exists(guard, Eq(a, b))) for guard, a, b in _EQ_RULES
    )
    out = conj(parts)
    validate(out, psi.reduction_type())
    return out


def kahr_fo_sentence(psi: KahrSentence) -> fo.FOFormula:
    """The sentence itself, as a closed first-order formula."""
    matrix = fo.standard_translation(psi.matrix, psi.matrix_type())
    return fo.FOForall(("x",), fo.FOExists(("y",), fo.FOForall(("z",), matrix)))


def _matrix_holds(
    matrix: fo.FOFormula, structure: Structure, a: str, b: str, c: str
) -> bool:
    return fo.eval_fo(matrix, structure, {"x": a, "y": b, "z": c})


def witness_model(
    psi: KahrSentence,
    structure: Structure,
    f: Mapping[str, str],
    max_team: int = DEFAULT_MAX_TEAM,
) -> DependenceModel:
    """The canonical satisfying team {(a, f(a), b, c)} built from a Skolem
    function f witnessing the sentence on the structure."""
    A = structure.universe
    for a in A:
        if a not in f or f[a] not in set(A):
            raise ReduceError(f"skolem table not total at {a!r}")
    matrix = fo.standard_translation(psi.matrix, psi.matrix_type())
    for a in A:
        for b in A:
            if not _matrix_holds(matrix, structure, a, f[a], b):
                raise ReduceError(
                    f"skolem verification failed: matrix false at ({a!r},{f[a]!r},{b!r})"
                )
    size = len(A) ** 3
    if size > max_team:
        raise ReduceError(f"witness team would have {size} rows, cap is {max_team}")
    team = tuple((a, f[a], b, c) for a in A for b in A for c in A)
    return DependenceModel(psi.reduction_type(), structure, team)


@dataclass(frozen=True)
class ExtractedModel:
    structure: Structure
    skolem: dict[str, str]


def extract_classical_model(
    model: DependenceModel, psi: KahrSentence, start_row: int = 0
) -> ExtractedModel:
    """Recover a classical model of the sentence from any dependence model
    of the encoding: read the Skolem function off the (x,y) columns,
    close its orbit from the start row's x-value, and restrict."""
    if model.ftype.variables != REDUCTION_VARS:
        raise ReduceError(
            f"expected variables {REDUCTION_VARS}, got {model.ftype.variables}"
        )
    psi_star = reduce_to_inclusion(psi)
    validate(psi_star, model.ftype)
    ev = Evaluator(model)
    if not all(ev.truth_rows(psi_star)):
        raise ReduceError("input model does not satisfy the encoding")

    f: dict[str, str] = {}
    for t in model.team:
        a, b = t[0], t[1]
        if f.setdefault(a, b) != b:
            raise ReduceError("dependence of y on x violated")

    orbit: list[str] = []
    a = model.team[start_row][0]
    while a not in orbit:
        orbit.append(a)
        if a not in f:
            raise ReduceError(f"orbit left the skolem graph at {a!r}")
        a = f[a]

    xz = {(t[0], t[2]) for t in model.team}
    for a, b in product(orbit, orbit):
        if (a, b) not in xz:
            raise ReduceError(
                f"orbit product missing from the (x,z) columns at ({a!r},{b!r})"
            )

    keep = set(orbit)
    relations = {
        name: frozenset(
            row for row in rows if all(e in keep for e in row)
        )
        for name, rows in model.structure.relations.items()
    }
    restricted = Structure(tuple(orbit), relations)
    matrix = fo.standard_translation(psi.matrix, psi.matrix_type())
    for a in orbit:
        for b in orbit:
            if not _matrix_holds(matrix, restricted, a, f[a], b):
                raise ReduceError(
                    f"extracted model fails the matrix at ({a!r},{f[a]!r},{b!r})"
                )
    return ExtractedModel(restricted, {a: f[a] for a in orbit})


# ---------------------------------------------------------------------------
# tuple-atom elimination for variable-distinguished teams

_TOP = object()
_BOT = object()


def rewrite_vd(phi: Formula, ftype: FiniteType) -> Formula:
    """Replace every inequality and exclusion atom by its syntactic truth
    value (true iff the variable tuples differ as tuples of names), then
    simplify the constants away.  On variable-distinguished teams this
    preserves truth pointwise; in general it preserves satisfiability."""

    def rw(f: Formula):
        if isinstance(f, (RelLit, Dep, Anon)):
            return f
        if isinstance(f, Neq):
            return _TOP if f.left != f.right else _BOT
        if isinstance(f, Excl):
            return _TOP if f.left != f.right else _BOT
        if isinstance(f, (And, Or)):
            # a junction's zero decides it, and its unit parts drop out
            zero, unit = (_BOT, _TOP) if isinstance(f, And) else (_TOP, _BOT)
            parts = [rw(p) for p in f.parts]
            if any(p is zero for p in parts):
                return zero
            rest = [p for p in parts if p is not unit]
            if not rest:
                return unit
            return rest[0] if len(rest) == 1 else type(f)(*rest)
        if isinstance(f, (Forall, Exists)):
            # the current assignment is always in range, so constants
            # pass through the quantifier unchanged
            body = rw(f.body)
            if body is _TOP or body is _BOT:
                return body
            return type(f)(f.fixed, body)
        raise FormulaError(
            f"{type(f).__name__} atom not allowed in the rewriting source"
        )

    out = rw(phi)
    v0 = ftype.variables[0]
    if out is _TOP:
        return Or(Dep((), v0), Anon((), v0))
    if out is _BOT:
        return And(Dep((), v0), Anon((), v0))
    return out
