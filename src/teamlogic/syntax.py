"""Formula AST, parser, printer, and negation normal form for local team logics.

A formula lives over a fixed finite type: a relational vocabulary plus an
ordered list of variables.  Variable sets attached to quantifiers and local
atoms are stored canonically sorted by the type's variable order, so
structural equality of two formulas is canonical equality.

``Not`` is a sugar node: it may appear in parsed formulas but every
downstream consumer (checker, translations, bisimulation) requires the
Not-free form produced by :func:`to_nnf`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence, Union


class FormulaError(Exception):
    """Raised for invalid formulas: syntax errors, unknown symbols, arity
    mismatches, or NNF conversion outside the enabled atom kinds."""


@dataclass(frozen=True)
class FiniteType:
    """A relational vocabulary together with an ordered variable list."""

    relations: tuple[tuple[str, int], ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        names = [r for r, _ in self.relations]
        if len(set(names)) != len(names):
            raise FormulaError("duplicate relation name")
        if not self.variables:
            raise FormulaError("variable list must be nonempty")
        if len(set(self.variables)) != len(self.variables):
            raise FormulaError("duplicate variable name")
        for r, ar in self.relations:
            if ar < 1:
                raise FormulaError(f"relation {r} must have arity >= 1")

    def arity(self, rel: str) -> int:
        for r, ar in self.relations:
            if r == rel:
                return ar
        raise FormulaError(f"unknown relation {rel!r}")

    def has_relation(self, name: str) -> bool:
        return any(r == name for r, _ in self.relations)

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise FormulaError(f"unknown variable {var!r}") from None

    def varset(self, names: Iterable[str]) -> tuple[str, ...]:
        """Canonical form of a variable set: deduplicated and sorted by the
        type's variable order."""
        uniq = set(names)
        for v in uniq:
            if v not in self.variables:
                raise FormulaError(f"unknown variable {v!r}")
        return tuple(v for v in self.variables if v in uniq)


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class RelLit(Formula):
    """A possibly negated relational literal R(x...)."""

    positive: bool
    rel: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Neq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Dep(Formula):
    """Local dependence: fixing the values of ``over`` at the current
    assignment fixes the value of ``target``."""

    over: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class Anon(Formula):
    """Local anonymity, the negation of local dependence."""

    over: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class Incl(Formula):
    """Local inclusion: the current values of ``left`` occur as values of
    ``right`` somewhere in the team."""

    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True)
class Excl(Formula):
    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True)
class Ind(Formula):
    """Local independence: the current values of ``left`` do not constrain
    the values of ``right``."""

    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True)
class NInd(Formula):
    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    """Universal dependence quantifier: the body holds at every team
    assignment agreeing with the current one on ``fixed``."""

    fixed: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    """Existential dependence quantifier, the dual of :class:`Forall`."""

    fixed: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class Not(Formula):
    """Negation sugar, eliminated by :func:`to_nnf`."""

    body: Formula


def conj(parts: Sequence[Formula]) -> Formula:
    """The left-nested conjunction ``(p0 & p1) & ...`` of a nonempty list."""
    if not parts:
        raise FormulaError("empty conjunction")
    return reduce(And, parts)


def disj(parts: Sequence[Formula]) -> Formula:
    """The left-nested disjunction ``(p0 | p1) | ...`` of a nonempty list."""
    if not parts:
        raise FormulaError("empty disjunction")
    return reduce(Or, parts)


LocalAtom = Union[RelLit, Eq, Neq, Dep, Anon, Incl, Excl, Ind, NInd]

ATOM_TYPES = (RelLit, Eq, Neq, Dep, Anon, Incl, Excl, Ind, NInd)

#: Atom kind labels used by OmegaProfile.
KIND_D = "D"
KIND_Y = "Y"
KIND_EQ = "="
KIND_NEQ = "!="
KIND_IN = "in"
KIND_NOTIN = "notin"
KIND_IND = "Ind"
KIND_NIND = "nInd"

ALL_KINDS = frozenset(
    {KIND_D, KIND_Y, KIND_EQ, KIND_NEQ, KIND_IN, KIND_NOTIN, KIND_IND, KIND_NIND}
)

DUAL_KIND = {
    KIND_D: KIND_Y,
    KIND_Y: KIND_D,
    KIND_EQ: KIND_NEQ,
    KIND_NEQ: KIND_EQ,
    KIND_IN: KIND_NOTIN,
    KIND_NOTIN: KIND_IN,
    KIND_IND: KIND_NIND,
    KIND_NIND: KIND_IND,
}

_KIND_OF = {
    Dep: KIND_D,
    Anon: KIND_Y,
    Eq: KIND_EQ,
    Neq: KIND_NEQ,
    Incl: KIND_IN,
    Excl: KIND_NOTIN,
    Ind: KIND_IND,
    NInd: KIND_NIND,
}


def atom_kind(phi: Formula) -> str | None:
    """The profile label of a local atom, or None for relational literals
    and non-atoms."""
    return _KIND_OF.get(type(phi))


@dataclass(frozen=True)
class OmegaProfile:
    """The set of local atom kinds a logic is allowed to use."""

    kinds: frozenset[str]

    def __post_init__(self):
        bad = self.kinds - ALL_KINDS
        if bad:
            raise FormulaError(f"unknown atom kinds: {sorted(bad)}")

    @classmethod
    def of(cls, *kinds: str) -> "OmegaProfile":
        return cls(frozenset(kinds))

    @classmethod
    def full(cls) -> "OmegaProfile":
        return cls(ALL_KINDS)

    def __contains__(self, kind: str) -> bool:
        return kind in self.kinds

    def is_negation_closed(self) -> bool:
        return all(DUAL_KIND[k] in self.kinds for k in self.kinds)

    def closed_under_negation(self) -> "OmegaProfile":
        return OmegaProfile(self.kinds | {DUAL_KIND[k] for k in self.kinds})


#: LFD and LFD-with-equality profiles.
LFD = OmegaProfile.of(KIND_D, KIND_Y)
LFD_EQ = OmegaProfile.of(KIND_D, KIND_Y, KIND_EQ, KIND_NEQ)


def infer_omega(phi: Formula) -> OmegaProfile:
    """The smallest profile covering the local atoms occurring in ``phi``."""
    kinds: set[str] = set()

    def walk(f: Formula):
        k = atom_kind(f)
        if k is not None:
            kinds.add(k)
        elif isinstance(f, (And, Or)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (Forall, Exists, Not)):
            walk(f.body)

    walk(phi)
    return OmegaProfile(frozenset(kinds))


# ---------------------------------------------------------------------------
# validation


def validate(phi: Formula, ftype: FiniteType) -> None:
    """Check variable membership, relation arities, and tuple shapes.
    Raises FormulaError on the first violation."""
    if isinstance(phi, RelLit):
        ar = ftype.arity(phi.rel)
        if len(phi.args) != ar:
            raise FormulaError(
                f"relation {phi.rel} expects {ar} arguments, got {len(phi.args)}"
            )
        for v in phi.args:
            ftype.index(v)
    elif isinstance(phi, (Eq, Neq)):
        ftype.index(phi.left)
        ftype.index(phi.right)
    elif isinstance(phi, (Dep, Anon)):
        if phi.over != ftype.varset(phi.over):
            raise FormulaError("variable set not in canonical order")
        ftype.index(phi.target)
    elif isinstance(phi, (Incl, Excl, Ind, NInd)):
        if not phi.left or not phi.right:
            raise FormulaError("tuple atoms require nonempty tuples")
        if len(phi.left) != len(phi.right):
            raise FormulaError(
                f"tuple length mismatch: {len(phi.left)} vs {len(phi.right)}"
            )
        for v in phi.left + phi.right:
            ftype.index(v)
    elif isinstance(phi, (And, Or)):
        validate(phi.left, ftype)
        validate(phi.right, ftype)
    elif isinstance(phi, (Forall, Exists)):
        if phi.fixed != ftype.varset(phi.fixed):
            raise FormulaError("variable set not in canonical order")
        validate(phi.body, ftype)
    elif isinstance(phi, Not):
        validate(phi.body, ftype)
    else:
        raise FormulaError(f"unknown formula node {type(phi).__name__}")


def is_nnf(phi: Formula) -> bool:
    """Whether ``phi`` is Not-free.  Each distinct node object is visited
    once, without recursion, so a shared DAG costs its node count."""
    seen: set[int] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Not):
            return False
        if id(f) in seen:
            continue
        seen.add(id(f))
        if isinstance(f, (And, Or)):
            stack += (f.left, f.right)
        elif isinstance(f, (Forall, Exists)):
            stack.append(f.body)
    return True


# ---------------------------------------------------------------------------
# free variables and quantifier rank


def free_vars(phi: Formula) -> frozenset[str]:
    """Free variables.  Quantifiers and dependence atoms expose only the
    variable set they fix; tuple atoms expose only their left tuple.
    ``Not`` is transparent."""
    if isinstance(phi, RelLit):
        return frozenset(phi.args)
    if isinstance(phi, (Eq, Neq)):
        return frozenset((phi.left, phi.right))
    if isinstance(phi, (Dep, Anon)):
        return frozenset(phi.over)
    if isinstance(phi, (Incl, Excl, Ind, NInd)):
        return frozenset(phi.left)
    if isinstance(phi, (And, Or)):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, (Forall, Exists)):
        return frozenset(phi.fixed)
    if isinstance(phi, Not):
        return free_vars(phi.body)
    raise FormulaError(f"unknown formula node {type(phi).__name__}")


def quantifier_rank(phi: Formula) -> int:
    if isinstance(phi, ATOM_TYPES):
        return 0
    if isinstance(phi, (And, Or)):
        return max(quantifier_rank(phi.left), quantifier_rank(phi.right))
    if isinstance(phi, (Forall, Exists)):
        return quantifier_rank(phi.body) + 1
    if isinstance(phi, Not):
        return quantifier_rank(phi.body)
    raise FormulaError(f"unknown formula node {type(phi).__name__}")


# ---------------------------------------------------------------------------
# negation normal form


def negate_atom(phi: Formula, omega: OmegaProfile) -> Formula:
    """The dual atom, checked against the profile."""
    if isinstance(phi, RelLit):
        return RelLit(not phi.positive, phi.rel, phi.args)
    kind = atom_kind(phi)
    dual = DUAL_KIND[kind]
    if dual not in omega:
        raise FormulaError(f"dual atom kind {dual!r} not enabled in profile")
    if isinstance(phi, Dep):
        return Anon(phi.over, phi.target)
    if isinstance(phi, Anon):
        return Dep(phi.over, phi.target)
    if isinstance(phi, Eq):
        return Neq(phi.left, phi.right)
    if isinstance(phi, Neq):
        return Eq(phi.left, phi.right)
    if isinstance(phi, Incl):
        return Excl(phi.left, phi.right)
    if isinstance(phi, Excl):
        return Incl(phi.left, phi.right)
    if isinstance(phi, Ind):
        return NInd(phi.left, phi.right)
    if isinstance(phi, NInd):
        return Ind(phi.left, phi.right)
    raise FormulaError(f"cannot negate {type(phi).__name__}")


def to_nnf(phi: Formula, omega: OmegaProfile | None = None) -> Formula:
    """Eliminate ``Not`` by pushing negation to the atoms.

    ``omega`` bounds the atom kinds that negation may produce; it defaults
    to the full profile.
    """
    if omega is None:
        omega = OmegaProfile.full()

    def pos(f: Formula) -> Formula:
        if isinstance(f, Not):
            return neg(f.body)
        if isinstance(f, And):
            return And(pos(f.left), pos(f.right))
        if isinstance(f, Or):
            return Or(pos(f.left), pos(f.right))
        if isinstance(f, Forall):
            return Forall(f.fixed, pos(f.body))
        if isinstance(f, Exists):
            return Exists(f.fixed, pos(f.body))
        return f

    def neg(f: Formula) -> Formula:
        if isinstance(f, Not):
            return pos(f.body)
        if isinstance(f, And):
            return Or(neg(f.left), neg(f.right))
        if isinstance(f, Or):
            return And(neg(f.left), neg(f.right))
        if isinstance(f, Forall):
            return Exists(f.fixed, neg(f.body))
        if isinstance(f, Exists):
            return Forall(f.fixed, neg(f.body))
        return negate_atom(f, omega)

    return pos(phi)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"\s*(!=|[()\[\];&|=!]|[A-Za-z0-9_']+)")

_SUGAR_GLOBALS = {
    "dep": "D",
    "anon": "Y",
    "incl": "in",
    "excl": "notin",
    "indep": "Ind",
}


class _Parser:
    def __init__(self, text: str, ftype: FiniteType):
        self.text = text
        self.ftype = ftype
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise FormulaError(
                        f"syntax error at position {pos}: unexpected {text[pos]!r}"
                    )
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def error(self, msg: str) -> FormulaError:
        at = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
        return FormulaError(f"syntax error at position {at}: {msg}")

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> str:
        if self.i >= len(self.tokens):
            raise self.error("unexpected end of input")
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise self.error(f"expected {tok!r}, got {got!r}")

    def var(self) -> str:
        tok = self.next()
        if tok not in self.ftype.variables:
            raise self.error(f"unknown variable {tok!r}")
        return tok

    def vars_until(self, *stop: str) -> list[str]:
        out = []
        while self.peek() not in stop:
            out.append(self.var())
        return out

    def phi(self) -> Formula:
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unit()
        while self.peek() == "&":
            self.next()
            f = And(f, self.unit())
        return f

    def unit(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        if tok == "(":
            self.next()
            f = self.phi()
            self.expect(")")
            return f
        if tok == "not":
            self.next()
            return Not(self.unit())
        if tok == "!":
            self.next()
            name = self.next()
            if not self.ftype.has_relation(name):
                raise self.error(f"unknown relation {name!r}")
            self.expect("(")
            args = self.vars_until(")")
            self.next()
            return self.rel_lit(False, name, args)
        if tok in ("E", "A") and self.lookahead("["):
            self.next()
            self.next()
            xs = self.vars_until("]")
            self.next()
            body = self.unit()
            fixed = self.ftype.varset(xs)
            return Exists(fixed, body) if tok == "E" else Forall(fixed, body)
        return self.atom()

    def lookahead(self, tok: str) -> bool:
        return self.i + 1 < len(self.tokens) and self.tokens[self.i + 1][0] == tok

    def rel_lit(self, positive: bool, name: str, args: list[str]) -> RelLit:
        ar = self.ftype.arity(name)
        if len(args) != ar:
            raise self.error(
                f"relation {name} expects {ar} arguments, got {len(args)}"
            )
        return RelLit(positive, name, tuple(args))

    def atom(self) -> Formula:
        tok = self.peek()
        if tok in ("D", "Y") and self.lookahead("["):
            self.next()
            self.next()
            xs = self.vars_until("]")
            self.next()
            y = self.var()
            over = self.ftype.varset(xs)
            return Dep(over, y) if tok == "D" else Anon(over, y)
        if tok in ("Ind", "nInd") and self.lookahead("["):
            self.next()
            self.next()
            xs = self.vars_until("]")
            self.next()
            self.expect("(")
            ys = self.vars_until(")")
            self.next()
            return self.tuple_atom(Ind if tok == "Ind" else NInd, xs, ys)
        if tok in ("in", "notin") and self.lookahead("("):
            self.next()
            self.next()
            xs = self.vars_until(";")
            self.next()
            ys = self.vars_until(")")
            self.next()
            return self.tuple_atom(Incl if tok == "in" else Excl, xs, ys)
        if tok in _SUGAR_GLOBALS and self.lookahead("("):
            self.next()
            self.next()
            xs = self.vars_until(";")
            self.next()
            ys = self.vars_until(")")
            self.next()
            kind = _SUGAR_GLOBALS[tok]
            if kind in ("D", "Y"):
                if len(ys) != 1:
                    raise self.error(f"{tok} expects a single target variable")
                ctor = Dep if kind == "D" else Anon
                return Forall((), ctor(self.ftype.varset(xs), ys[0]))
            ctor = {"in": Incl, "notin": Excl, "Ind": Ind}[kind]
            return Forall((), self.tuple_atom(ctor, xs, ys))
        name = self.next()
        if self.peek() == "(":
            if not self.ftype.has_relation(name):
                raise self.error(f"unknown relation {name!r}")
            self.next()
            args = self.vars_until(")")
            self.next()
            return self.rel_lit(True, name, args)
        if name not in self.ftype.variables:
            raise self.error(f"unknown relation or variable {name!r}")
        op = self.next()
        if op == "=":
            return Eq(name, self.var())
        if op == "!=":
            return Neq(name, self.var())
        raise self.error(f"expected '=' or '!=', got {op!r}")

    def tuple_atom(self, ctor, xs: list[str], ys: list[str]) -> Formula:
        if not xs or not ys:
            raise self.error("tuple atoms require nonempty tuples")
        if len(xs) != len(ys):
            raise self.error(
                f"tuple length mismatch: {len(xs)} vs {len(ys)}"
            )
        return ctor(tuple(xs), tuple(ys))


def parse_formula(text: str, ftype: FiniteType) -> Formula:
    """Parse ``text`` into a validated formula over ``ftype``."""
    p = _Parser(text, ftype)
    f = p.phi()
    if p.peek() is not None:
        raise p.error(f"trailing input {p.peek()!r}")
    validate(f, ftype)
    return f


# ---------------------------------------------------------------------------
# printer


def print_formula(phi: Formula) -> str:
    """Render a formula so that parsing the result reproduces it.

    Each distinct node object is rendered once, so a shared DAG costs time
    linear in its node count plus the text it produces.  The walk keeps
    its own stack, so nesting depth is not bounded by the recursion limit.
    """
    text: dict[int, str] = {}
    # (node, None) asks for the text of node; (node, plan) renders it once
    # the text of every child in the plan exists
    stack: list[tuple[Formula, tuple | None]] = [(phi, None)]
    while stack:
        node, plan = stack.pop()
        if plan is None:
            if id(node) in text:
                continue
            atom = _ATOM_TEXT.get(type(node))
            if atom is not None:
                text[id(node)] = atom(node)
            else:
                plan = _plan(node, text)
                stack.append((node, plan))
                stack.extend((c, None) for c, _ in plan[2] if id(c) not in text)
            continue
        prefix, sep, pieces = plan
        out = [prefix]
        for n, (c, parens) in enumerate(pieces):
            if n:
                out.append(sep)
            if parens:
                out += ("(", text[id(c)], ")")
            else:
                out.append(text[id(c)])
        text[id(node)] = "".join(out)
    return text[id(phi)]


def _plan(phi: Formula, text: dict[int, str]):
    """How to render a non-atom ``phi``: a prefix, then a separator and the
    pieces it joins, each a child and whether it needs parentheses.  A
    left-nested And or Or spine becomes one join, and a chain of
    quantifier and negation prefixes one prefix, so that a long chain is
    not copied once per node.  The descent stops at nodes whose text
    already exists."""
    # precedence levels: 0 = disjunction context, 1 = conjunction, 2 = unit;
    # a disjunction needs parentheses above level 0, a conjunction above 1
    if isinstance(phi, (And, Or)):
        op = type(phi)
        sep, left, right = (" & ", 1, 2) if op is And else (" | ", 0, 1)
        pieces = []
        while isinstance(phi, op) and id(phi) not in text:
            pieces.append(phi.right)
            phi = phi.left
        pieces.append(phi)
        pieces.reverse()
        levels = [left] + [right] * (len(pieces) - 1)
        return "", sep, [(c, _needs_parens(c, lv)) for c, lv in zip(pieces, levels)]
    if isinstance(phi, (Forall, Exists, Not)):
        prefix = []
        while isinstance(phi, (Forall, Exists, Not)) and id(phi) not in text:
            if isinstance(phi, Not):
                prefix.append("not ")
            else:
                q = "A" if isinstance(phi, Forall) else "E"
                prefix.append(f"{q}[{' '.join(phi.fixed)}] ")
            phi = phi.body
        return "".join(prefix), "", [(phi, _needs_parens(phi, 2))]
    raise FormulaError(f"unknown formula node {type(phi).__name__}")


def _needs_parens(phi: Formula, level: int) -> bool:
    return isinstance(phi, Or) and level > 0 or isinstance(phi, And) and level > 1


_ATOM_TEXT = {
    RelLit: lambda f: f"{'' if f.positive else '!'}{f.rel}({' '.join(f.args)})",
    Eq: lambda f: f"{f.left} = {f.right}",
    Neq: lambda f: f"{f.left} != {f.right}",
    Dep: lambda f: f"D[{' '.join(f.over)}] {f.target}",
    Anon: lambda f: f"Y[{' '.join(f.over)}] {f.target}",
    Incl: lambda f: f"in({' '.join(f.left)} ; {' '.join(f.right)})",
    Excl: lambda f: f"notin({' '.join(f.left)} ; {' '.join(f.right)})",
    Ind: lambda f: f"Ind[{' '.join(f.left)}]({' '.join(f.right)})",
    NInd: lambda f: f"nInd[{' '.join(f.left)}]({' '.join(f.right)})",
}
