"""Reference answers computed without the code under test.

This module imports nothing from ``teamlogic``.  It evaluates team-logic
formulas on row bitsets (one Python int per subformula, bit i for team
row i), computes stage-k bisimilarity by refining one partition over the
rows of both models, and evaluates first-order formulas by Tarski
expansion.  Formulas given as text (the printed output of the program) are
parsed by a separate parser for the documented grammar.  The benchmark's
tests check this module against ``teamlogic.fo.eval_fo`` over
``standard_translation`` and against the naive refinement in
``tests/gen.py`` on small inputs.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations, product


# ---------------------------------------------------------------------------
# first-order evaluation (team definitions and Kahr matrices)


def fo_holds(rels: dict, universe, f, env: dict) -> bool:
    tag = f[0]
    if tag == "rel":
        held = tuple(env[a] for a in f[3]) in rels[f[2]]
        return held if f[1] else not held
    if tag == "=":
        return env[f[1]] == env[f[2]]
    if tag == "not":
        return not fo_holds(rels, universe, f[1], env)
    if tag == "and":
        return all(fo_holds(rels, universe, p, env) for p in f[1])
    if tag == "or":
        return any(fo_holds(rels, universe, p, env) for p in f[1])
    if tag == "exists":
        return any(fo_holds(rels, universe, f[2], {**env, f[1]: e}) for e in universe)
    raise ValueError(f"unknown node {tag!r}")


def relation_sets(spec) -> dict:
    return {name: frozenset(rows) for name, _, rows in spec.relations}


def kahr_holds(rels: dict, universe, matrix) -> bool:
    """forall x exists y forall z matrix."""
    return all(
        any(all(fo_holds(rels, universe, matrix, {"x": a, "y": b, "z": c})
                for c in universe) for b in universe)
        for a in universe
    )


# ---------------------------------------------------------------------------
# team semantics on row bitsets


class Team:
    """A dependence model for reference evaluation."""

    def __init__(self, variables, rels: dict, team):
        self.variables = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.rels = rels
        self.team = tuple(team)
        self.all = (1 << len(self.team)) - 1
        self._groups: dict[tuple[str, ...], dict] = {}
        self._atoms: dict = {}
        # atom masks by object identity, holding the atom so its id stays
        # unique; parsed texts repeat the same atom objects many times
        self._atom_ids: dict[int, tuple] = {}

    @classmethod
    def of(cls, spec) -> "Team":
        return cls(spec.variables, relation_sets(spec), spec.team)

    def groups(self, xs) -> dict:
        """Rows grouped by their projection onto the variable tuple."""
        xs = tuple(xs)
        got = self._groups.get(xs)
        if got is None:
            idx = [self.index[x] for x in xs]
            got = {}
            for r, row in enumerate(self.team):
                key = tuple(row[i] for i in idx)
                got[key] = got.get(key, 0) | (1 << r)
            self._groups[xs] = got
        return got

    def _rows(self, pred) -> int:
        out = 0
        for r, row in enumerate(self.team):
            if pred(row):
                out |= 1 << r
        return out

    def atom(self, f) -> int:
        hit = self._atom_ids.get(id(f))
        if hit is not None:
            return hit[1]
        got = self._atoms.get(f)
        if got is None:
            got = self._atom(f)
            self._atoms[f] = got
        self._atom_ids[id(f)] = (f, got)
        return got

    def _atom(self, f) -> int:
        tag, ix = f[0], self.index
        if tag == "rel":
            rel = self.rels.get(f[2], frozenset())
            idx = [ix[a] for a in f[3]]
            held = self._rows(lambda row: tuple(row[i] for i in idx) in rel)
            return held if f[1] else self.all & ~held
        if tag in ("=", "!="):
            a, b = ix[f[1]], ix[f[2]]
            eq = self._rows(lambda row: row[a] == row[b])
            return eq if tag == "=" else self.all & ~eq
        if tag in ("D", "Y"):
            j = ix[f[2]]
            dep = 0
            for mask in self.groups(f[1]).values():
                if len({self.team[r][j] for r in _bits(mask)}) == 1:
                    dep |= mask
            return dep if tag == "D" else self.all & ~dep
        if tag in ("in", "notin"):
            values = set(self.groups(f[2]))
            inc = 0
            for key, mask in self.groups(f[1]).items():
                if key in values:
                    inc |= mask
            return inc if tag == "in" else self.all & ~inc
        if tag in ("Ind", "nInd"):
            right = self.groups(f[2])
            ind = 0
            for mask in self.groups(f[1]).values():
                if all(mask & m for m in right.values()):
                    ind |= mask
            return ind if tag == "Ind" else self.all & ~ind
        raise ValueError(f"not an atom: {tag!r}")

    def eval(self, f) -> int:
        """The set of rows where ``f`` holds, as a bitset."""
        tag = f[0]
        if tag == "and":
            out = self.all
            for p in f[1]:
                out &= self.eval(p)
            return out
        if tag == "or":
            out = 0
            for p in f[1]:
                out |= self.eval(p)
            return out
        if tag in ("A", "E"):
            body = self.eval(f[2])
            out = 0
            for mask in self.groups(f[1]).values():
                if (body & mask == mask) if tag == "A" else (body & mask):
                    out |= mask
            return out
        return self.atom(f)

    def truth(self, f) -> tuple[bool, ...]:
        mask = self.eval(f)
        return tuple(bool(mask >> r & 1) for r in range(len(self.team)))

    def agree(self, r: int, s: int, xs) -> bool:
        a, b = self.team[r], self.team[s]
        return all(a[self.index[x]] == b[self.index[x]] for x in xs)

    def comvar(self, r: int, s: int) -> tuple[str, ...]:
        a, b = self.team[r], self.team[s]
        return tuple(v for i, v in enumerate(self.variables) if a[i] == b[i])


def _bits(mask: int):
    r = 0
    while mask:
        if mask & 1:
            yield r
        mask >>= 1
        r += 1


# ---------------------------------------------------------------------------
# bisimulation by partition refinement over both models


def canonical_atoms(variables, relations, kinds) -> list:
    """The stage-0 atom family: relational atoms on every argument tuple,
    D/Y for every variable set and target, equalities for variable pairs,
    tuple atoms for pairs of repetition-free tuples of equal length."""
    vs = tuple(variables)
    atoms = [("rel", True, name, args) for name, ar in relations
             for args in product(vs, repeat=ar)]
    subsets = [c for r in range(len(vs) + 1) for c in combinations(vs, r)]
    for k in ("D", "Y"):
        if k in kinds:
            atoms += [(k, X, y) for X in subsets for y in vs]
    for k in ("=", "!="):
        if k in kinds:
            atoms += [(k, a, b) for a, b in combinations(vs, 2)]
    pairs = [(xs, ys) for r in range(1, len(vs) + 1)
             for xs in permutations(vs, r) for ys in permutations(vs, r)]
    for k in ("in", "notin", "Ind", "nInd"):
        if k in kinds:
            atoms += [(k, xs, ys) for xs, ys in pairs]
    return atoms


class Refinement:
    """Stage-by-stage bisimilarity classes over the rows of two models.

    Stage 0 groups rows by their truth vector on the canonical atom family.
    A row's stage-(k+1) class is its stage-k class together with, for every
    variable set X, the set of stage-k classes met in its X-block of its own
    team.  Two rows of different models are k-bisimilar exactly when they
    share a stage-k class."""

    def __init__(self, left: Team, right: Team, relations, kinds):
        self.left, self.right = left, right
        atoms = canonical_atoms(left.variables, relations, kinds)
        lmasks = [left.atom(a) for a in atoms]
        rmasks = [right.atom(a) for a in atoms]
        sigs = [tuple(m >> r & 1 for m in lmasks) for r in range(len(left.team))]
        sigs += [tuple(m >> r & 1 for m in rmasks) for r in range(len(right.team))]
        self.stages = [_number(sigs)]
        vs = left.variables
        self._subsets = [c for r in range(len(vs) + 1) for c in combinations(vs, r)]

    def classes(self, k: int) -> list[int]:
        while len(self.stages) <= k:
            self.stages.append(self._refine(self.stages[-1]))
        return self.stages[k]

    def _refine(self, cls: list[int]) -> list[int]:
        nl = len(self.left.team)
        sigs = [[c] for c in cls]
        for side, offset in ((self.left, 0), (self.right, nl)):
            for X in self._subsets:
                for mask in side.groups(X).values():
                    rows = list(_bits(mask))
                    met = frozenset(cls[offset + r] for r in rows)
                    for r in rows:
                        sigs[offset + r].append(met)
        return _number([tuple(s) for s in sigs])

    def relation(self, k: int) -> frozenset[tuple[int, int]]:
        cls = self.classes(k)
        nl = len(self.left.team)
        by_class: dict[int, list[int]] = {}
        for j in range(len(self.right.team)):
            by_class.setdefault(cls[nl + j], []).append(j)
        return frozenset((i, j) for i in range(nl) for j in by_class.get(cls[i], ()))

    def fixpoint(self) -> int:
        """The first stage k whose relation equals that of stage k + 1."""
        k = 0
        while self.relation(k) != self.relation(k + 1):
            k += 1
        return k

    def related(self, k: int, i: int, j: int) -> bool:
        cls = self.classes(k)
        return cls[i] == cls[len(self.left.team) + j]


def _number(sigs) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(s, len(ids)) for s in sigs]


def replay_witness(ref: Refinement, pair, stage: int, kind: str, detail) -> str | None:
    """None when the failure witness is valid for the pair, else why not.
    ``detail`` is the atom as a parsed formula for atom witnesses, else
    (challenger row, agreement variable tuple)."""
    i, j = pair
    L, R = ref.left, ref.right
    if kind == "atom":
        if stage != 0:
            return f"atom witness at stage {stage}"
        if (L.eval(detail) >> i & 1) == (R.eval(detail) >> j & 1):
            return "the atom agrees at the pair"
        return None
    if stage < 1 or not ref.related(stage - 1, i, j):
        return f"pair not related at stage {stage - 1}"
    prev = ref.relation(stage - 1)
    row, X = detail
    X = tuple(X)
    if kind == "forth":
        if X != L.comvar(row, i):
            return f"agreement set {X} is not comvar of left rows {row}, {i}"
        if any((row, b) in prev and R.agree(b, j, X) for b in range(len(R.team))):
            return "a forth partner exists"
        return None
    if kind == "back":
        if X != R.comvar(row, j):
            return f"agreement set {X} is not comvar of right rows {row}, {j}"
        if any((a, row) in prev and L.agree(a, i, X) for a in range(len(L.team))):
            return "a back partner exists"
        return None
    return f"unknown witness kind {kind!r}"


# ---------------------------------------------------------------------------
# parser for printed formulas

_TOKEN = re.compile(r"!=|[()\[\];&|=!]|[A-Za-z0-9_']+")
_SPACE = re.compile(r"\s+")


class ParseError(ValueError):
    pass


def parse(text: str):
    """Parse the documented formula grammar into the tuple form of
    :mod:`inputs`; ``&`` and ``|`` chains become one n-ary node.

    Iterative, with an explicit stack, so that nesting depth is not bounded
    by the recursion limit and multi-megabyte texts parse quickly."""
    toks = _TOKEN.findall(text)
    if sum(map(len, toks)) != len(_SPACE.sub("", text)):
        raise ParseError("unexpected characters")
    # frames: ["(", or_parts, and_parts] or [quantifier, fixed]
    stack: list[list] = [["(", [], []]]
    atoms: dict = {}  # one object per distinct atom
    want_unit = True
    i, n = 0, len(toks)

    def names_until(j, stop):
        try:
            k = toks.index(stop, j)
        except ValueError:
            raise ParseError(f"missing {stop!r}") from None
        return tuple(toks[j:k]), k + 1

    while i < n:
        tok = toks[i]
        nxt = toks[i + 1] if i + 1 < n else None
        if not want_unit:
            if tok == "&":
                want_unit = True
                i += 1
                continue
            if tok == "|":
                top = stack[-1]
                top[1].append(_chain("and", top[2]))
                top[2] = []
                want_unit = True
                i += 1
                continue
            if tok != ")" or len(stack) == 1:
                raise ParseError(f"unexpected token {tok!r} at {i}")
            frame = stack.pop()
            unit = _chain("or", frame[1] + [_chain("and", frame[2])])
            i += 1
        elif tok == "(":
            stack.append(["(", [], []])
            i += 1
            continue
        elif tok in ("A", "E") and nxt == "[":
            fixed, i = names_until(i + 2, "]")
            stack.append([tok, fixed])
            continue
        elif tok == "!":
            if toks[i + 2] != "(":
                raise ParseError(f"expected '(' at {i + 2}")
            args, i = names_until(i + 3, ")")
            unit = ("rel", False, nxt, args)
        elif tok in ("D", "Y") and nxt == "[":
            over, i = names_until(i + 2, "]")
            unit = (tok, over, toks[i])
            i += 1
        elif tok in ("Ind", "nInd") and nxt == "[":
            xs, i = names_until(i + 2, "]")
            if toks[i] != "(":
                raise ParseError(f"expected '(' at {i}")
            ys, i = names_until(i + 1, ")")
            unit = (tok, xs, ys)
        elif tok in ("in", "notin") and nxt == "(":
            xs, i = names_until(i + 2, ";")
            ys, i = names_until(i, ")")
            unit = (tok, xs, ys)
        elif nxt == "(":
            args, i = names_until(i + 2, ")")
            unit = ("rel", True, tok, args)
        elif nxt in ("=", "!=") and i + 2 < n:
            unit = (nxt, tok, toks[i + 2])
            i += 3
        else:
            raise ParseError(f"unexpected token {tok!r} at {i}")
        if unit[0] not in ("and", "or", "A", "E"):
            unit = atoms.setdefault(unit, unit)
        # a complete unit closes the quantifier prefixes waiting for it
        while stack[-1][0] in ("A", "E"):
            q, fixed = stack.pop()
            unit = (q, fixed, unit)
        stack[-1][2].append(unit)
        want_unit = False
    if want_unit or len(stack) != 1:
        raise ParseError("unexpected end of input")
    top = stack[0]
    return _chain("or", top[1] + [_chain("and", top[2])])


def _chain(tag: str, parts: list):
    return parts[0] if len(parts) == 1 else (tag, tuple(parts))
