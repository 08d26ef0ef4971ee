"""Deterministic input generators for the teamlogic benchmark.

Every generator draws from a ``random.Random`` seeded with a string built
from the workload seed and the item's position (the variables of check
formulas from the position alone, see ``FORMULA_VARIANTS``), so the same
seed gives byte-identical inputs under any ``PYTHONHASHSEED``: string seeds
are hashed with SHA-512, and no draw iterates over a set.  Inputs are produced as the
text a user would hand to the command-line tool (``.dm`` models, ``.kahr``
sentences, formula and first-order text) together with a plain-tuple
description that the reference in :mod:`reference` evaluates without the
code under test.

Formula ASTs are nested tuples:

``("rel", positive, name, args)``, ``("=", a, b)``, ``("!=", a, b)``,
``("D"|"Y", over, target)``, ``("in"|"notin"|"Ind"|"nInd", xs, ys)``,
``("and"|"or", parts)`` with ``parts`` a tuple of two or more formulas, and
``("A"|"E", fixed, body)``.

First-order team definitions and Kahr matrices use ``("rel", True, name,
args)``, ``("=", a, b)``, ``("not", f)``, ``("and"|"or", parts)`` and
``("exists", var, body)``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from itertools import product

from reference import Team, fo_holds, relation_sets

VARS = ("x", "y", "z", "u")

#: team sizes of the check-team ladder, with how many check requests of each
#: size one block holds: counts fall as rows grow so that every rung gets a
#: comparable share of the time (the checker is quadratic or worse in rows)
LADDER = ((100, 5), (200, 4), (400, 3), (800, 2))
#: Kahr universe sizes of the three reduce requests of each block, by block
#: number modulo 4: mostly 5 and 6, since the witness team has |A|^3 rows
REDUCE_SIZES = ((5, 5, 6), (5, 6, 7), (5, 5, 6), (5, 6, 8))
#: the variables of check formulas cycle through this many draws that are
#: the same for every seed (the team, and with it each quantifier's
#: polarity, still comes from the seed): a rung's cost then varies with the
#: seed only through its teams, so run-to-run spread stays small
FORMULA_VARIANTS = 8

ANCHOR_FORMULA = "A[x] (D[y] z | E[] (in(x ; z) & R(x y)))"


def rng_for(seed, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def spread(block: int, salt: int, lo: int, hi: int) -> int:
    """A size in lo..hi that cycles through the whole range as the block
    number grows, the same for every seed, so that sizes are spread evenly
    over the pool instead of drawn at random."""
    return lo + (17 * block + salt) % (hi - lo + 1)


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class ModelSpec:
    """A dependence model as plain data; ``team`` is None for a
    structure-only model."""

    variables: tuple[str, ...]
    universe: tuple[str, ...]
    relations: tuple[tuple[str, int, tuple[tuple[str, ...], ...]], ...]
    team: tuple[tuple[str, ...], ...] | None

    def dm(self) -> str:
        out = [f"universe {' '.join(self.universe)}", f"vars {' '.join(self.variables)}"]
        for name, arity, rows in self.relations:
            out.append(f"rel {name} {arity}")
            out.extend(" ".join(r) for r in rows)
            out.append("end")
        if self.team is not None:
            out.append("team")
            out.extend(" ".join(r) for r in self.team)
            out.append("end")
        return "\n".join(out) + "\n"


def _universe(size: int, prefix: str = "e") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(size))


def _random_relations(rng, universe, density_p=0.5, density_r=0.3):
    unary = tuple((e,) for e in universe if rng.random() < density_p)
    binary = tuple(p for p in product(universe, repeat=2) if rng.random() < density_r)
    return (("P", 1, unary), ("R", 2, binary))


def random_model(rng, n_vars: int, rows: int, universe_size: int) -> ModelSpec:
    universe = _universe(universe_size)
    space = list(product(universe, repeat=n_vars))
    team = tuple(rng.sample(space, rows))
    return ModelSpec(VARS[:n_vars], universe, _random_relations(rng, universe), team)


def full_model(n_vars: int, universe_size: int, prefix: str = "e") -> ModelSpec:
    universe = _universe(universe_size, prefix)
    team = tuple(product(universe, repeat=n_vars))
    return ModelSpec(VARS[:n_vars], universe, (), team)


def ladder_universe(n_vars: int, rows: int) -> int:
    """Smallest universe whose assignment space holds the team at a
    density of at most two thirds."""
    size = 2
    while size ** n_vars * 2 < rows * 3:
        size += 1
    return size


def relabel(rng, spec: ModelSpec) -> tuple[ModelSpec, list[int]]:
    """An isomorphic copy: elements renamed by a random bijection and team
    rows shuffled.  Returns the copy and the image index of every source
    row."""
    names = [f"c{i}" for i in range(len(spec.universe))]
    rng.shuffle(names)
    ren = dict(zip(spec.universe, names))
    universe = tuple(sorted(names, key=lambda s: int(s[1:])))
    rels = tuple(
        (name, ar, tuple(sorted(tuple(ren[e] for e in r) for r in rows)))
        for name, ar, rows in spec.relations
    )
    order = list(range(len(spec.team)))
    rng.shuffle(order)
    team = tuple(tuple(ren[e] for e in spec.team[i]) for i in order)
    image = [0] * len(order)
    for new, old in enumerate(order):
        image[old] = new
    return ModelSpec(spec.variables, universe, rels, team), image


def perturb(rng, spec: ModelSpec) -> tuple[ModelSpec, int]:
    """A copy with one value of one team row changed, keeping rows
    distinct.  Returns the copy and the changed row index."""
    existing = set(spec.team)
    while True:
        i = rng.randrange(len(spec.team))
        col = rng.randrange(len(spec.variables))
        row = list(spec.team[i])
        row[col] = rng.choice([e for e in spec.universe if e != row[col]])
        row = tuple(row)
        if row not in existing:
            team = spec.team[:i] + (row,) + spec.team[i + 1:]
            return ModelSpec(spec.variables, spec.universe, spec.relations, team), i


# ---------------------------------------------------------------------------
# team-logic formulas


def render(f) -> str:
    """Text in the teamlogic grammar; compound parts are parenthesised."""
    tag = f[0]
    if tag == "rel":
        return f"{'' if f[1] else '!'}{f[2]}({' '.join(f[3])})"
    if tag in ("=", "!="):
        return f"{f[1]} {tag} {f[2]}"
    if tag in ("D", "Y"):
        return f"{tag}[{' '.join(f[1])}] {f[2]}"
    if tag in ("in", "notin"):
        return f"{tag}({' '.join(f[1])} ; {' '.join(f[2])})"
    if tag in ("Ind", "nInd"):
        return f"{tag}[{' '.join(f[1])}]({' '.join(f[2])})"
    if tag in ("and", "or"):
        op = " & " if tag == "and" else " | "
        return "(" + op.join(render(p) for p in f[1]) + ")"
    if tag in ("A", "E"):
        return f"{tag}[{' '.join(f[1])}] {render(f[2])}"
    raise ValueError(f"unknown node {tag!r}")


def count_nodes(f) -> int:
    tag = f[0]
    if tag in ("and", "or"):
        return len(f[1]) - 1 + sum(count_nodes(p) for p in f[1])
    if tag in ("A", "E"):
        return 1 + count_nodes(f[2])
    return 1


def rank(f) -> int:
    tag = f[0]
    if tag in ("and", "or"):
        return max(rank(p) for p in f[1])
    if tag in ("A", "E"):
        return 1 + rank(f[2])
    return 0


def _varset(rng, vs, lo, hi):
    k = rng.randint(lo, hi)
    chosen = set(rng.sample(vs, k))
    return tuple(v for v in vs if v in chosen)


def _overlapping_pair(rng, vs):
    """Two 2-tuples sharing a variable.  The shared variable forces the
    witness row to repeat the current value, so on the generated teams the
    independence atom fails after one scan instead of holding after n."""
    shared = rng.choice(vs)
    a, b = rng.sample([v for v in vs if v != shared], 2)
    left, right = [a, shared], [shared, b]
    rng.shuffle(left)
    rng.shuffle(right)
    return tuple(left), tuple(right)


def _distinct_tuples(rng, vs):
    """Two different tuples of length 1 or 2, for inclusion atoms."""
    r = rng.randint(1, 2)
    xs = tuple(rng.sample(vs, r))
    while True:
        ys = tuple(rng.sample(vs, r))
        if ys != xs:
            return xs, ys


def check_formula(rng, team: Team) -> tuple:
    """A formula of fixed shape with 20 nodes: one atom of each of the eight
    kinds plus a relational literal, and three quantifiers, one of them
    global.  Rank 3 nests Q1 inside Q2, rank 2 puts them side by side::

        Q0[X0] (D | Q2[X2] (= & Ind | Y & notin | Q1[] (in & R & nInd)) & !=)
        Q0[X0] (D | (Q2[X2] (= & Ind | Y & notin) | Q1[] (in & R & nInd)) & !=)

    Variables are drawn at random.  X0 and X2 fix all variables but one, so
    their blocks are small, and each of Q0 and Q2 is universal when its
    body holds on most rows of ``team`` and existential otherwise: the row
    that decides it is rare, so the checker's scan for it is close to a
    full pass over the team at every row, and the cost of a request is
    quadratic in the rows with little spread between formulas.  The global
    Q1 takes the other polarity, so its scan stops after a few rows: a
    rarely decided global quantifier would cost anything from a few rows to
    a full pass per row, depending on how many rows decide it.  The
    independence atoms sit behind selective guards (an equality and the
    sparse relation R), so they are evaluated at a fraction of the rows."""
    vs = team.variables

    def quantify(fixed, body, rare=True):
        most = 2 * bin(team.eval(body)).count("1") >= len(team.team)
        return ("A" if most == rare else "E", fixed, body)

    def large_set():
        return _varset(rng, vs, len(vs) - 1, len(vs) - 1)

    a, b = rng.sample(vs, 2)
    c, d = rng.sample(vs, 2)
    p, q = rng.sample(vs, 2)
    choices = [
        ("and", (("=", a, b), ("Ind",) + _overlapping_pair(rng, vs))),
        ("and", (("Y", _varset(rng, vs, 0, 2), rng.choice(vs)),
                 ("notin",) + _distinct_tuples(rng, vs))),
    ]
    glob = quantify((), ("and", (("in",) + _distinct_tuples(rng, vs),
                                 ("rel", True, "R", (c, d)),
                                 ("nInd",) + _overlapping_pair(rng, vs))), rare=False)
    if rng.random() < 0.5:
        inner = quantify(large_set(), ("or", tuple(choices) + (glob,)))
    else:
        inner = ("or", (quantify(large_set(), ("or", tuple(choices))), glob))
    return quantify(large_set(), ("or", (
        ("D", _varset(rng, vs, 0, 2), rng.choice(vs)),
        ("and", (inner, ("!=", p, q))),
    )))


# ---------------------------------------------------------------------------
# first-order team definitions and Kahr sentences


def render_fo(f) -> str:
    tag = f[0]
    if tag == "rel":
        return f"{f[2]}({' '.join(f[3])})"
    if tag == "=":
        return f"{f[1]} = {f[2]}"
    if tag == "not":
        return f"~{render_fo(f[1])}"
    if tag in ("and", "or"):
        op = " & " if tag == "and" else " | "
        return "(" + op.join(render_fo(p) for p in f[1]) + ")"
    if tag == "exists":
        return f"(exists {f[1]} . {render_fo(f[2])})"
    raise ValueError(f"unknown node {tag!r}")


def _fo_literal(rng, vs):
    roll = rng.randrange(5)
    if roll == 0:
        lit = ("rel", True, "P", (rng.choice(vs),))
    elif roll == 1:
        lit = ("=",) + tuple(rng.sample(vs, 2))
    elif roll == 2:
        # the bound variable is a team variable: the command-line tool
        # parses team definitions over the model's variables only
        a, w = rng.sample(vs, 2)
        lit = ("exists", w, ("and", (("rel", True, "R", (a, w)), ("rel", True, "P", (w,)))))
    else:
        lit = ("rel", True, "R", tuple(rng.sample(vs, 2)))
    return ("not", lit) if rng.random() < 0.4 else lit


def fo_team_formula(rng, vs) -> tuple:
    """A disjunction of two conjunctions of two literals."""
    return ("or", tuple(
        ("and", (_fo_literal(rng, vs), _fo_literal(rng, vs))) for _ in range(2)
    ))


KAHR_LITERALS = (
    ("rel", True, "B", ("x", "y")),
    ("rel", True, "B", ("y", "z")),
    ("rel", True, "B", ("z", "x")),
    ("rel", True, "B", ("x", "z")),
    ("rel", True, "P", ("x",)),
    ("rel", True, "P", ("y",)),
    ("rel", True, "P", ("z",)),
    ("rel", True, "Q", ("y",)),
    ("rel", True, "Q", ("z",)),
)


def kahr_matrix(rng) -> tuple:
    """A quantifier-free matrix over x, y, z: a disjunction of three
    conjunctions of one or two literals."""
    clauses = []
    for _ in range(3):
        lits = []
        for _ in range(rng.randint(1, 2)):
            lit = rng.choice(KAHR_LITERALS)
            lits.append(("not", lit) if rng.random() < 0.4 else lit)
        clauses.append(lits[0] if len(lits) == 1 else ("and", tuple(lits)))
    return ("or", tuple(clauses))


def render_matrix(f) -> str:
    """A Kahr matrix in the teamlogic grammar (negation as ``!R(...)``)."""
    tag = f[0]
    if tag == "rel":
        return f"{f[2]}({' '.join(f[3])})"
    if tag == "not":
        return "!" + render_matrix(f[1])
    if tag in ("and", "or"):
        op = " & " if tag == "and" else " | "
        return "(" + op.join(render_matrix(p) for p in f[1]) + ")"
    raise ValueError(f"unknown node {tag!r}")


# ---------------------------------------------------------------------------
# workload items


@dataclass
class Item:
    """One request of a workload: its kind, its inputs as text, and the
    facts the reference needs to compute the expected answer."""

    kind: str
    texts: dict[str, str]
    facts: dict = field(default_factory=dict)

    def digest_bytes(self) -> bytes:
        parts = [self.kind] + [f"{k}={self.texts[k]}" for k in sorted(self.texts)]
        return "\x00".join(parts).encode()


def _formula_rng(n_vars: int, variant: int) -> random.Random:
    return rng_for("formula", n_vars, variant % FORMULA_VARIANTS)


def _check_item(rng, rows: int, n_vars: int, variant: int) -> Item:
    spec = random_model(rng, n_vars, rows, ladder_universe(n_vars, rows))
    phi = check_formula(_formula_rng(n_vars, variant), Team.of(spec))
    return Item("check", {"model": spec.dm(), "formula": render(phi)},
                {"model": spec, "formula": phi, "rows": rows})


def _check_fo_item(rng, variant: int) -> Item:
    """A structure-only model and a first-order team definition, redrawn
    until the defined team has at least 40 rows."""
    vs = VARS[:3]
    while True:
        size = rng.choice((6, 7))
        universe = _universe(size)
        rels = _random_relations(rng, universe)
        spec = ModelSpec(vs, universe, rels, None)
        team_def = fo_team_formula(rng, vs)
        rel_sets = relation_sets(spec)
        team = tuple(
            row for row in product(universe, repeat=3)
            if fo_holds(rel_sets, universe, team_def, dict(zip(vs, row)))
        )
        if len(team) >= 40:
            break
    model = ModelSpec(vs, universe, rels, team)
    phi = check_formula(_formula_rng(3, variant), Team.of(model))
    return Item(
        "check-fo",
        {"model": spec.dm(), "team_fo": render_fo(team_def), "formula": render(phi)},
        {"model": model, "formula": phi, "rows": len(team)},
    )


def _reduce_item(rng, size: int, target: str) -> Item:
    """A Kahr sentence true on a random structure over ``size`` elements,
    with a Skolem function for it; redrawn until the sentence holds."""
    universe = _universe(size, "a")
    while True:
        matrix = kahr_matrix(rng)
        rels = (
            ("B", 2, tuple(p for p in product(universe, repeat=2) if rng.random() < 0.5)),
            ("P", 1, tuple((e,) for e in universe if rng.random() < 0.5)),
            ("Q", 1, tuple((e,) for e in universe if rng.random() < 0.5)),
        )
        spec = ModelSpec(("x", "y", "z"), universe, rels, None)
        rel_sets = relation_sets(spec)
        choices = [
            [b for b in universe
             if all(fo_holds(rel_sets, universe, matrix, {"x": a, "y": b, "z": c})
                    for c in universe)]
            for a in universe
        ]
        if all(choices):
            break
    skolem = {a: rng.choice(ys) for a, ys in zip(universe, choices)}
    text = f"binary B\nmonadic P Q\nmatrix {render_matrix(matrix)}\n"
    return Item("reduce", {"kahr": text},
                {"structure": spec, "matrix": matrix, "skolem": skolem,
                 "target": target, "rows": size ** 3})


def check_team_pool(seed: int, blocks: int) -> list[Item]:
    """Blocks of 14 check requests on the ladder, 3 check-fo requests and 3
    reduce requests (70/15/15 %).  Each block is shuffled, so any prefix of
    whole blocks keeps the mix."""
    pool = []
    for b in range(blocks):
        rng = rng_for(seed, "check-team", b)
        block = [_check_item(rng, rows, 3 + (b + i) % 2, b * count + i)
                 for rows, count in LADDER for i in range(count)]
        block += [_check_fo_item(rng, 3 * b + i) for i in range(3)]
        block += [_reduce_item(rng, s, ("incl", "eq")[(b + i) % 2])
                  for i, s in enumerate(REDUCE_SIZES[b % 4])]
        rng.shuffle(block)
        pool.extend(block)
    return pool


LFD_KINDS = ("D", "Y")
LFD_EQ_KINDS = ("D", "Y", "=", "!=")
FULL_KINDS = ("D", "Y", "=", "!=", "in", "notin", "Ind", "nInd")
PROFILES = {"LFD": LFD_KINDS, "LFD_EQ": LFD_EQ_KINDS, "full": FULL_KINDS,
            "incl": ("in", "notin"), "ind": ("Ind", "nInd")}


def _bisim_item(rng, kind: str, profile: str, left: ModelSpec, right: ModelSpec,
                at_left: int, at_right: int, **facts) -> Item:
    return Item(
        "bisim",
        {"left": left.dm(), "right": right.dm(), "omega": ",".join(PROFILES[profile]),
         "at_left": " ".join(left.team[at_left]), "at_right": " ".join(right.team[at_right])},
        {"left": left, "right": right, "profile": profile, "pair": kind,
         "at": (at_left, at_right), "rows": max(len(left.team), len(right.team)), **facts},
    )


def bisim_pool(seed: int, blocks: int) -> list[Item]:
    """Blocks of ten model pairs of 8-81 rows each: full teams over
    different universe sizes, relabelled and row-shuffled copies, one-row
    perturbations and independent random teams, under LFD, LFD_EQ and
    tuple-atom profiles."""
    pool = []
    for b in range(blocks):
        rng = rng_for(seed, "bisim-fix", b)
        block = []
        # full teams: refinement over a large stage-0 relation
        for n_vars, sizes, profile in ((2, (4, 5), "LFD"), (3, (3, 2), "LFD"),
                                       (2, (6, 5), "LFD"), (2, (4, 3), "LFD_EQ")):
            left, right = full_model(n_vars, sizes[0]), full_model(n_vars, sizes[1], "f")
            block.append(_bisim_item(rng, "full", profile, left, right,
                                     rng.randrange(len(left.team)),
                                     rng.randrange(len(right.team))))
        # relabelled copies: bisimilar at the image row by construction
        for n_vars, lo, hi, profile in ((3, 24, 48, "LFD_EQ"), (2, 20, 49, "incl")):
            rows = spread(b, n_vars, lo, hi)
            src = random_model(rng, n_vars, rows, ladder_universe(n_vars, rows))
            copy, image = relabel(rng, src)
            i = rng.randrange(rows)
            block.append(_bisim_item(rng, "copy", profile, src, copy, i, image[i],
                                     image=image))
        # one-row perturbations: several refinement rounds
        for n_vars, lo, hi, profile in ((3, 16, 40, "LFD"), (2, 16, 36, "ind")):
            rows = spread(b, 5 * n_vars, lo, hi)
            src = random_model(rng, n_vars, rows, ladder_universe(n_vars, rows))
            pert, changed = perturb(rng, src)
            block.append(_bisim_item(rng, "perturbed", profile, src, pert,
                                     changed, changed))
        # independent random teams: decided at stage 0 or 1
        for n_vars, lo, hi, profile in ((3, 27, 81, "LFD_EQ"), (2, 16, 36, "ind")):
            rows_l, rows_r = spread(b, n_vars, lo, hi), spread(b, 7 * n_vars, lo, hi)
            left = random_model(rng, n_vars, rows_l, ladder_universe(n_vars, rows_l))
            right = random_model(rng, n_vars, rows_r, ladder_universe(n_vars, rows_r))
            block.append(_bisim_item(rng, "random", profile, left, right,
                                     rng.randrange(rows_l), rng.randrange(rows_r)))
        rng.shuffle(block)
        pool.extend(block)
    return pool


def charform_pool(seed: int, blocks: int) -> list[Item]:
    """Blocks of nine requests, one for each rank k in 1..3 and profile in
    LFD, LFD_EQ and full, on 8-20-row models.  LFD at k = 2 prints one
    characteristic formula (1-2 MB of text)."""
    pool = []
    for b in range(blocks):
        rng = rng_for(seed, "charform-ef", b)
        block = []
        for p, profile in enumerate(("LFD", "LFD_EQ", "full")):
            for k in (1, 2, 3):
                printing = profile == "LFD" and k == 2
                if printing:
                    n_vars, rows = 3, spread(b, 0, 8, 10)
                else:
                    n_vars = 2 + (b + p + k) % 2
                    rows = spread(b, 3 * p + k, 8, 20 if n_vars == 3 else 16)
                src = random_model(rng, n_vars, rows, ladder_universe(n_vars, rows))
                iso, image = relabel(rng, src)
                pert, _ = perturb(rng, src)
                block.append(Item(
                    "charform",
                    {"model": src.dm(), "iso": iso.dm(), "perturbed": pert.dm(),
                     "omega": ",".join(PROFILES[profile]), "k": str(k),
                     "print": "0" if printing else ""},
                    {"model": src, "iso": iso, "image": image, "perturbed": pert,
                     "profile": profile, "k": k, "print": printing, "rows": rows},
                ))
        rng.shuffle(block)
        pool.extend(block)
    return pool


def digest(pool: list[Item]) -> str:
    h = hashlib.sha256()
    for item in pool:
        h.update(item.digest_bytes())
        h.update(b"\x01")
    return h.hexdigest()
