"""First-order ASTs, a Tarski evaluator over finite structures, and the
translations from local team logic into first-order logic.

The evaluator is deliberately naive (exhaustive quantifier expansion with
short-circuiting): it serves as the trusted oracle against which the team
checker is validated, so simplicity beats speed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Union

from . import syntax
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
    Ind,
    Neq,
    NInd,
    Not,
    Or,
    RelLit,
)


class TranslationError(Exception):
    """Raised when a formula has no translation in the requested target."""


class EvalError(Exception):
    """Raised on unbound variables or arity mismatches during evaluation."""


# ---------------------------------------------------------------------------
# terms and formulas


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    token: str


Term = Union[Var, Const]


class FOFormula:
    __slots__ = ()


@dataclass(frozen=True)
class FOTrue(FOFormula):
    pass


@dataclass(frozen=True)
class FOFalse(FOFormula):
    pass


@dataclass(frozen=True)
class FORel(FOFormula):
    rel: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class FOEq(FOFormula):
    left: Term
    right: Term


@dataclass(frozen=True)
class FONot(FOFormula):
    body: FOFormula


@dataclass(frozen=True)
class FOAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOOr(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOImplies(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOForall(FOFormula):
    vars: tuple[str, ...]
    body: FOFormula


@dataclass(frozen=True)
class FOExists(FOFormula):
    vars: tuple[str, ...]
    body: FOFormula


def conj(parts: Iterable[FOFormula]) -> FOFormula:
    parts = list(parts)
    if not parts:
        return FOTrue()
    out = parts[0]
    for p in parts[1:]:
        out = FOAnd(out, p)
    return out


def disj(parts: Iterable[FOFormula]) -> FOFormula:
    parts = list(parts)
    if not parts:
        return FOFalse()
    out = parts[0]
    for p in parts[1:]:
        out = FOOr(out, p)
    return out


def free_variables(psi: FOFormula) -> frozenset[str]:
    if isinstance(psi, (FOTrue, FOFalse)):
        return frozenset()
    if isinstance(psi, FORel):
        return frozenset(t.name for t in psi.args if isinstance(t, Var))
    if isinstance(psi, FOEq):
        return frozenset(
            t.name for t in (psi.left, psi.right) if isinstance(t, Var)
        )
    if isinstance(psi, FONot):
        return free_variables(psi.body)
    if isinstance(psi, (FOAnd, FOOr, FOImplies)):
        return free_variables(psi.left) | free_variables(psi.right)
    if isinstance(psi, (FOForall, FOExists)):
        return free_variables(psi.body) - frozenset(psi.vars)
    raise EvalError(f"unknown node {type(psi).__name__}")


def max_free_vars(psi: FOFormula) -> int:
    """Maximal number of free variables over all subformulas."""
    best = len(free_variables(psi))
    if isinstance(psi, FONot):
        return max(best, max_free_vars(psi.body))
    if isinstance(psi, (FOAnd, FOOr, FOImplies)):
        return max(best, max_free_vars(psi.left), max_free_vars(psi.right))
    if isinstance(psi, (FOForall, FOExists)):
        return max(best, max_free_vars(psi.body))
    return best


# ---------------------------------------------------------------------------
# Tarski evaluation


def eval_fo(psi: FOFormula, structure, env: Mapping[str, str]) -> bool:
    """Classical Tarski truth over a finite structure.  ``env`` binds the
    free variables to element tokens."""

    def term(t: Term, env) -> str:
        if isinstance(t, Const):
            return t.token
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None

    def rec(f: FOFormula, env) -> bool:
        if isinstance(f, FOTrue):
            return True
        if isinstance(f, FOFalse):
            return False
        if isinstance(f, FORel):
            return structure.holds(f.rel, tuple(term(t, env) for t in f.args))
        if isinstance(f, FOEq):
            return term(f.left, env) == term(f.right, env)
        if isinstance(f, FONot):
            return not rec(f.body, env)
        if isinstance(f, FOAnd):
            return rec(f.left, env) and rec(f.right, env)
        if isinstance(f, FOOr):
            return rec(f.left, env) or rec(f.right, env)
        if isinstance(f, FOImplies):
            return (not rec(f.left, env)) or rec(f.right, env)
        if isinstance(f, (FOForall, FOExists)):
            want = isinstance(f, FOExists)
            for values in product(structure.universe, repeat=len(f.vars)):
                inner = dict(env)
                inner.update(zip(f.vars, values))
                if rec(f.body, inner) == want:
                    return want
            return not want
        raise EvalError(f"unknown node {type(f).__name__}")

    return rec(psi, dict(env))


# ---------------------------------------------------------------------------
# text form

_FO_TOKEN_RE = re.compile(r"\s*(!=|->|[()=~.,&|]|[A-Za-z0-9_\[\]:@'#-]+)")

_FO_KEYWORDS = {"forall", "exists", "true", "false"}


def print_fo(psi: FOFormula) -> str:
    return _print_fo(psi, 0)


# levels: 0 implication, 1 disjunction, 2 conjunction, 3 unit
def _print_term(t: Term) -> str:
    return t.name if isinstance(t, Var) else t.token


def _print_fo(psi: FOFormula, level: int) -> str:
    if isinstance(psi, FOImplies):
        s = f"{_print_fo(psi.left, 1)} -> {_print_fo(psi.right, 0)}"
        return f"({s})" if level > 0 else s
    if isinstance(psi, FOOr):
        s = f"{_print_fo(psi.left, 1)} | {_print_fo(psi.right, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(psi, FOAnd):
        s = f"{_print_fo(psi.left, 2)} & {_print_fo(psi.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(psi, FOForall):
        return f"forall {' '.join(psi.vars)} . {_print_fo(psi.body, 3)}"
    if isinstance(psi, FOExists):
        return f"exists {' '.join(psi.vars)} . {_print_fo(psi.body, 3)}"
    if isinstance(psi, FONot):
        return f"~{_print_fo(psi.body, 3)}"
    if isinstance(psi, FOTrue):
        return "true"
    if isinstance(psi, FOFalse):
        return "false"
    if isinstance(psi, FORel):
        return f"{psi.rel}({' '.join(_print_term(t) for t in psi.args)})"
    if isinstance(psi, FOEq):
        return f"{_print_term(psi.left)} = {_print_term(psi.right)}"
    raise EvalError(f"unknown node {type(psi).__name__}")


class _FOParser:
    def __init__(self, text: str, variables: frozenset[str]):
        self.text = text
        self.variables = variables
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _FO_TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise TranslationError(
                        f"syntax error at position {pos}: unexpected {text[pos]!r}"
                    )
                break
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def error(self, msg: str) -> TranslationError:
        at = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)
        return TranslationError(f"syntax error at position {at}: {msg}")

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

    def term_of(self, tok: str) -> Term:
        return Var(tok) if tok in self.variables else Const(tok)

    def fo(self) -> FOFormula:
        f = self.disj()
        if self.peek() == "->":
            self.next()
            return FOImplies(f, self.fo())
        return f

    def disj(self) -> FOFormula:
        f = self.conj()
        while self.peek() == "|":
            self.next()
            f = FOOr(f, self.conj())
        return f

    def conj(self) -> FOFormula:
        f = self.unit()
        while self.peek() == "&":
            self.next()
            f = FOAnd(f, self.unit())
        return f

    def unit(self) -> FOFormula:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        if tok == "(":
            self.next()
            f = self.fo()
            self.expect(")")
            return f
        if tok == "~":
            self.next()
            return FONot(self.unit())
        if tok in ("forall", "exists"):
            self.next()
            names = []
            while self.peek() != ".":
                names.append(self.next())
            self.next()
            body = self.unit()
            ctor = FOForall if tok == "forall" else FOExists
            return ctor(tuple(names), body)
        if tok == "true":
            self.next()
            return FOTrue()
        if tok == "false":
            self.next()
            return FOFalse()
        name = self.next()
        nxt = self.peek()
        if nxt == "(":
            self.next()
            args = []
            while self.peek() != ")":
                args.append(self.term_of(self.next()))
            self.next()
            return FORel(name, tuple(args))
        if nxt == "=":
            self.next()
            return FOEq(self.term_of(name), self.term_of(self.next()))
        if nxt == "!=":
            self.next()
            return FONot(FOEq(self.term_of(name), self.term_of(self.next())))
        raise self.error(f"expected atom, got {name!r}")


def parse_fo(text: str, variables: Iterable[str]) -> FOFormula:
    """Parse a first-order formula.  Identifiers in ``variables`` become
    variables; any other identifier is an element constant."""
    p = _FOParser(text, frozenset(variables))
    f = p.fo()
    if p.peek() is not None:
        raise p.error(f"trailing input {p.peek()!r}")
    return f


# ---------------------------------------------------------------------------
# standard translation into FO(tau + team predicate)

TEAM = "T"


def _team_atom(args: Iterable[Term], team_symbol: str) -> FORel:
    return FORel(team_symbol, tuple(args))


def standard_translation(
    phi: Formula, ftype: FiniteType, team_symbol: str = TEAM
) -> FOFormula:
    """Compositional translation relativizing quantifiers to the team
    predicate.  The result has free variables among the type's variables
    and is evaluated at the current assignment's value tuple."""
    vs = ftype.variables
    n = len(vs)
    z1 = tuple(f"z1_{v}" for v in vs)
    z2 = tuple(f"z2_{v}" for v in vs)

    def tr(f: Formula) -> FOFormula:
        if isinstance(f, RelLit):
            atom = FORel(f.rel, tuple(Var(a) for a in f.args))
            return atom if f.positive else FONot(atom)
        if isinstance(f, Eq):
            return FOEq(Var(f.left), Var(f.right))
        if isinstance(f, Neq):
            return FONot(FOEq(Var(f.left), Var(f.right)))
        if isinstance(f, (Dep, Anon)):
            out = _tr_dep(f.over, f.target)
            return out if isinstance(f, Dep) else FONot(out)
        if isinstance(f, (Incl, Excl)):
            out = _tr_incl(f.left, f.right)
            return out if isinstance(f, Incl) else FONot(out)
        if isinstance(f, (Ind, NInd)):
            out = _tr_ind(f.left, f.right)
            return out if isinstance(f, Ind) else FONot(out)
        if isinstance(f, And):
            return conj(map(tr, f.parts))
        if isinstance(f, Or):
            return disj(map(tr, f.parts))
        if isinstance(f, (Forall, Exists)):
            rest = tuple(v for v in vs if v not in f.fixed)
            guard = _team_atom((Var(v) for v in vs), team_symbol)
            if isinstance(f, Forall):
                return FOForall(rest, FOImplies(guard, tr(f.body)))
            return FOExists(rest, FOAnd(guard, tr(f.body)))
        if isinstance(f, Not):
            raise TranslationError("translation requires a Not-free formula")
        raise TranslationError(f"unknown formula node {type(f).__name__}")

    def _tr_dep(over: tuple[str, ...], target: str) -> FOFormula:
        # two team rows that agree with the current assignment on `over`
        # must agree with each other on `target`
        fixed = set(over)
        row1 = tuple(Var(v) if v in fixed else Var(z) for v, z in zip(vs, z1))
        row2 = tuple(Var(v) if v in fixed else Var(z) for v, z in zip(vs, z2))
        j = ftype.index(target)
        quantified = tuple(
            z for v, z in zip(vs, z1) if v not in fixed
        ) + tuple(z for v, z in zip(vs, z2) if v not in fixed)
        body = FOImplies(
            FOAnd(_team_atom(row1, team_symbol), _team_atom(row2, team_symbol)),
            FOEq(row1[j], row2[j]),
        )
        if not quantified:
            return body
        return FOForall(quantified, body)

    def _tr_incl(left: tuple[str, ...], right: tuple[str, ...]) -> FOFormula:
        eqs = [
            FOEq(Var(z1[ftype.index(y)]), Var(x)) for x, y in zip(left, right)
        ]
        return FOExists(
            z1, FOAnd(_team_atom((Var(z) for z in z1), team_symbol), conj(eqs))
        )

    def _tr_ind(left: tuple[str, ...], right: tuple[str, ...]) -> FOFormula:
        keep_current = [
            FOEq(Var(z2[ftype.index(x)]), Var(x)) for x in dict.fromkeys(left)
        ]
        keep_witness = [
            FOEq(Var(z2[ftype.index(y)]), Var(z1[ftype.index(y)]))
            for y in dict.fromkeys(right)
        ]
        inner = FOExists(
            z2,
            FOAnd(
                _team_atom((Var(z) for z in z2), team_symbol),
                conj(keep_current + keep_witness),
            ),
        )
        return FOForall(
            z1, FOImplies(_team_atom((Var(z) for z in z1), team_symbol), inner)
        )

    return tr(phi)


def guarded_translation(
    beta: Formula, ftype: FiniteType, team_symbol: str = TEAM
) -> FOFormula:
    """Team-guarded form of the inclusion and exclusion atoms: substitute
    the left tuple into the right tuple's positions of a team atom and
    quantify only the remaining positions."""
    if not isinstance(beta, (Incl, Excl)):
        raise TranslationError("guarded translation covers inclusion/exclusion only")
    vs = ftype.variables
    zs = tuple(f"g_{v}" for v in vs)
    subst: dict[int, str] = {}
    extra_eqs: list[FOFormula] = []
    for x, y in zip(beta.left, beta.right):
        j = ftype.index(y)
        if j in subst:
            if subst[j] != x:
                # same team position constrained by two left variables
                extra_eqs.append(FOEq(Var(subst[j]), Var(x)))
        else:
            subst[j] = x
    row = tuple(
        Var(subst[i]) if i in subst else Var(z) for i, z in enumerate(zs)
    )
    quantified = tuple(z for i, z in enumerate(zs) if i not in subst)
    guard = _team_atom(row, team_symbol)
    if isinstance(beta, Incl):
        body = FOAnd(guard, conj(extra_eqs)) if extra_eqs else guard
        return FOExists(quantified, body) if quantified else body
    consequent = FOImplies(conj(extra_eqs), FOFalse()) if extra_eqs else FOFalse()
    body = FOImplies(guard, consequent)
    return FOForall(quantified, body) if quantified else body


# ---------------------------------------------------------------------------
# modal translation over standard relational models


def _sim(var: str) -> str:
    return f"~{var}"


def _monadic(rel: str, args: tuple[str, ...]) -> str:
    return f"{rel}[{' '.join(args)}]"


@dataclass(frozen=True)
class StandardRelationalModel:
    """The modal view of a dependence model: the universe is the team,
    relational facts become monadic predicates, and per-variable agreement
    becomes an equivalence relation."""

    structure: "object"
    row_names: tuple[str, ...]

    def name_of(self, row_index: int) -> str:
        return self.row_names[row_index]


def _relational_atoms(phi: Formula) -> set[tuple[str, tuple[str, ...]]]:
    out: set[tuple[str, tuple[str, ...]]] = set()

    def walk(f: Formula):
        if isinstance(f, RelLit):
            out.add((f.rel, f.args))
        elif isinstance(f, (And, Or)):
            for p in f.parts:
                walk(p)
        elif isinstance(f, (Forall, Exists, Not)):
            walk(f.body)

    walk(phi)
    return out


def build_standard_relational_model(model, phi: Formula) -> StandardRelationalModel:
    """Monadic predicates are created only for relation/argument pairs
    occurring in ``phi``."""
    from .model import Structure  # deferred: model imports this module

    rows = model.team
    names = tuple(f"s{i}" for i in range(len(rows)))
    relations: dict[str, frozenset[tuple[str, ...]]] = {}
    for x in model.ftype.variables:
        i = model.ftype.index(x)
        pairs = {
            (names[a], names[b])
            for a in range(len(rows))
            for b in range(len(rows))
            if rows[a][i] == rows[b][i]
        }
        relations[_sim(x)] = frozenset(pairs)
    for rel, args in _relational_atoms(phi):
        sat = {
            (names[a],)
            for a in range(len(rows))
            if model.structure.holds(rel, model.values(rows[a], args))
        }
        relations[_monadic(rel, args)] = frozenset(sat)
    return StandardRelationalModel(Structure(names, relations), names)


def modal_translation(phi: Formula, state_var: str = "w0") -> FOFormula:
    """Translation into the modal vocabulary of agreement relations and
    monadic predicates, with one free state variable.

    Only the modal fragment is covered: relational literals, dependence,
    anonymity, independence and their duals.  Equality and inclusion atoms
    have no modal translation and are rejected.
    """

    def fresh(depth: int) -> str:
        return f"w{depth}"

    def agree(a: str, b: str, xs: Iterable[str]) -> FOFormula:
        return conj(FORel(_sim(x), (Var(a), Var(b))) for x in xs)

    def tr(f: Formula, cur: str, depth: int) -> FOFormula:
        if isinstance(f, RelLit):
            atom = FORel(_monadic(f.rel, f.args), (Var(cur),))
            return atom if f.positive else FONot(atom)
        if isinstance(f, (Dep, Anon)):
            t = fresh(depth + 1)
            out = FOForall(
                (t,),
                FOImplies(agree(t, cur, f.over), FORel(_sim(f.target), (Var(t), Var(cur)))),
            )
            return out if isinstance(f, Dep) else FONot(out)
        if isinstance(f, (Ind, NInd)):
            t = fresh(depth + 1)
            u = fresh(depth + 2)
            out = FOForall(
                (t,),
                FOExists(
                    (u,),
                    FOAnd(
                        agree(cur, u, dict.fromkeys(f.left)),
                        agree(u, t, dict.fromkeys(f.right)),
                    ),
                ),
            )
            return out if isinstance(f, Ind) else FONot(out)
        if isinstance(f, (Eq, Neq, Incl, Excl)):
            raise TranslationError(
                f"{type(f).__name__} atom is not in the modal fragment"
            )
        if isinstance(f, And):
            return conj(tr(p, cur, depth) for p in f.parts)
        if isinstance(f, Or):
            return disj(tr(p, cur, depth) for p in f.parts)
        if isinstance(f, (Forall, Exists)):
            t = fresh(depth + 1)
            inner = tr(f.body, t, depth + 1)
            if isinstance(f, Forall):
                return FOForall((t,), FOImplies(agree(t, cur, f.fixed), inner))
            return FOExists((t,), FOAnd(agree(t, cur, f.fixed), inner))
        if isinstance(f, Not):
            raise TranslationError("translation requires a Not-free formula")
        raise TranslationError(f"unknown formula node {type(f).__name__}")

    return tr(phi, state_var, 0)
