"""First-order ASTs, a Tarski evaluator over finite structures, and the
translations from local team logic into first-order logic.

``FOAnd`` and ``FOOr`` are n-ary, like ``And`` and ``Or`` in
:mod:`teamlogic.syntax`, whose constructor they share: each holds a tuple
of two or more parts.  :func:`conj` and :func:`disj` build one node from
a list, the parser collects an unparenthesised ``a & b & c`` into one
node, and the printer keeps the parentheses of a junction that is a part
of one of the same kind, so ``parse_fo(print_fo(psi)) == psi`` is exact.
A flat chain of any length is one level deep in every walk here.
The parser reads its tokens through the scanner of the formula parser.

The evaluator is deliberately naive (exhaustive quantifier expansion with
short-circuiting): it serves as the trusted oracle against which the team
checker is validated, so simplicity beats speed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Union

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
    _Junction,
    _postorder,
    _Scanner,
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


@dataclass(frozen=True, init=False)
class FOAnd(_Junction, FOFormula):
    """Conjunction of two or more parts: ``FOAnd(a, b, c)``."""

    parts: tuple[FOFormula, ...]


@dataclass(frozen=True, init=False)
class FOOr(_Junction, FOFormula):
    """Disjunction of two or more parts: ``FOOr(a, b, c)``."""

    parts: tuple[FOFormula, ...]


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
    """``true`` for no parts, the only part, or one ``FOAnd``."""
    parts = tuple(parts)
    if len(parts) < 2:
        return parts[0] if parts else FOTrue()
    return FOAnd(*parts)


def disj(parts: Iterable[FOFormula]) -> FOFormula:
    """``false`` for no parts, the only part, or one ``FOOr``."""
    parts = tuple(parts)
    if len(parts) < 2:
        return parts[0] if parts else FOFalse()
    return FOOr(*parts)


def free_variables(psi: FOFormula) -> frozenset[str]:
    return _free(psi, [])


def max_free_vars(psi: FOFormula) -> int:
    """Maximal number of free variables over all subformulas."""
    widths: list[int] = []
    _free(psi, widths)
    return max(widths)


def _free(psi: FOFormula, widths: list[int]) -> frozenset[str]:
    """The free variables of ``psi``; appends the free-variable count of
    every subformula to ``widths``."""
    t = type(psi)
    if t is FORel:
        out = frozenset([a.name for a in psi.args if type(a) is Var])
    elif t is FOAnd or t is FOOr:
        out = frozenset().union(*[_free(p, widths) for p in psi.parts])
    elif t is FONot:
        out = _free(psi.body, widths)
    elif t is FOEq:
        out = frozenset([a.name for a in (psi.left, psi.right) if type(a) is Var])
    elif t is FOForall or t is FOExists:
        out = _free(psi.body, widths).difference(psi.vars)
    elif t is FOImplies:
        out = _free(psi.left, widths) | _free(psi.right, widths)
    elif t is FOTrue or t is FOFalse:
        out = frozenset()
    else:
        raise EvalError(f"unknown node {t.__name__}")
    widths.append(len(out))
    return out


# ---------------------------------------------------------------------------
# Tarski evaluation


def eval_fo(psi: FOFormula, structure, env: Mapping[str, str]) -> bool:
    """Classical Tarski truth over a finite structure.  ``env`` binds the
    free variables to element tokens."""

    def term(t: Term, env) -> str:
        if type(t) is Const:
            return t.token
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None

    # exact type tests, most frequent node first: this runs once per node
    # and assignment when a team definition is materialised
    def rec(f: FOFormula, env) -> bool:
        t = type(f)
        if t is FORel:
            return structure.holds(f.rel, tuple([term(a, env) for a in f.args]))
        if t is FOAnd:
            for p in f.parts:
                if not rec(p, env):
                    return False
            return True
        if t is FOOr:
            for p in f.parts:
                if rec(p, env):
                    return True
            return False
        if t is FONot:
            return not rec(f.body, env)
        if t is FOEq:
            return term(f.left, env) == term(f.right, env)
        if t is FOForall or t is FOExists:
            want = t is FOExists
            for values in product(structure.universe, repeat=len(f.vars)):
                inner = dict(env)
                inner.update(zip(f.vars, values))
                if rec(f.body, inner) == want:
                    return want
            return not want
        if t is FOImplies:
            return (not rec(f.left, env)) or rec(f.right, env)
        if t is FOTrue or t is FOFalse:
            return t is FOTrue
        raise EvalError(f"unknown node {t.__name__}")

    return rec(psi, dict(env))


# ---------------------------------------------------------------------------
# text form

_FO_TOKEN_RE = re.compile(r"\s*(!=|->|[()=~.,&|]|[A-Za-z0-9_\[\]:@'#-]+)")


def print_fo(psi: FOFormula) -> str:
    return _print_fo(psi, 0)


# levels: 0 implication, 1 disjunction, 2 conjunction, 3 unit
def _print_term(t: Term) -> str:
    return t.name if isinstance(t, Var) else t.token


def _print_fo(psi: FOFormula, level: int) -> str:
    if isinstance(psi, FOImplies):
        s = f"{_print_fo(psi.left, 1)} -> {_print_fo(psi.right, 0)}"
        return f"({s})" if level > 0 else s
    # a part that is a junction of its parent's kind keeps its parentheses,
    # so that it parses back as a part of its own
    if isinstance(psi, FOOr):
        s = " | ".join([_print_fo(p, 2) for p in psi.parts])
        return f"({s})" if level > 1 else s
    if isinstance(psi, FOAnd):
        s = " & ".join([_print_fo(p, 3) for p in psi.parts])
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


class _FOParser(_Scanner):
    def __init__(self, text: str, variables: frozenset[str]):
        super().__init__(text, _FO_TOKEN_RE, TranslationError)
        self.variables = variables

    def term_of(self, tok: str) -> Term:
        return Var(tok) if tok in self.variables else Const(tok)

    def fo(self) -> FOFormula:
        f = self.disj()
        if self.peek() == "->":
            self.next()
            return FOImplies(f, self.fo())
        return f

    def disj(self) -> FOFormula:
        parts = [self.conj()]
        while self.peek() == "|":
            self.next()
            parts.append(self.conj())
        return disj(parts)

    def conj(self) -> FOFormula:
        parts = [self.unit()]
        while self.peek() == "&":
            self.next()
            parts.append(self.unit())
        return conj(parts)

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
    p.expect_end()
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


def _relational_atoms(phi: Formula) -> set[tuple[str, tuple[str, ...]]]:
    return {(f.rel, f.args) for f in _postorder(phi) if isinstance(f, RelLit)}


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

    def agree(a: str, b: str, xs: Iterable[str]) -> list[FOFormula]:
        """The conjuncts stating that a and b agree on xs; ``true`` for
        no variable."""
        return [FORel(_sim(x), (Var(a), Var(b))) for x in xs] or [FOTrue()]

    def tr(f: Formula, cur: str, depth: int) -> FOFormula:
        if isinstance(f, RelLit):
            atom = FORel(_monadic(f.rel, f.args), (Var(cur),))
            return atom if f.positive else FONot(atom)
        if isinstance(f, (Dep, Anon)):
            t = fresh(depth + 1)
            out = FOForall(
                (t,),
                FOImplies(
                    conj(agree(t, cur, f.over)),
                    FORel(_sim(f.target), (Var(t), Var(cur))),
                ),
            )
            return out if isinstance(f, Dep) else FONot(out)
        if isinstance(f, (Ind, NInd)):
            t = fresh(depth + 1)
            u = fresh(depth + 2)
            out = FOForall(
                (t,),
                FOExists(
                    (u,),
                    # prints as a1 & ... & (b1 & ...): the agreement on the
                    # left tuple joins the conjunction, the one on the right
                    # stays a part of its own
                    FOAnd(
                        *agree(cur, u, dict.fromkeys(f.left)),
                        conj(agree(u, t, dict.fromkeys(f.right))),
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
                return FOForall((t,), FOImplies(conj(agree(t, cur, f.fixed)), inner))
            return FOExists((t,), FOAnd(*agree(t, cur, f.fixed), inner))
        if isinstance(f, Not):
            raise TranslationError("translation requires a Not-free formula")
        raise TranslationError(f"unknown formula node {type(f).__name__}")

    return tr(phi, state_var, 0)
