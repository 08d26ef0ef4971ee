"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

All populations are generated from fixed seeds so reruns are identical.
"""

import random
from itertools import product

import gen
from teamlogic import (
    DependenceModel,
    Evaluator,
    FiniteType,
    OmegaProfile,
    PointedModel,
    Structure,
    atom_agreement,
    bisimilarity,
    build_standard_relational_model,
    char_formula_all,
    check,
    check_global_atom,
    check_is_bisimulation,
    eval_fo,
    expand,
    extract_classical_model,
    full_team,
    kahr_fo_sentence,
    materialize_fo_team,
    parse_formula,
    parse_fo,
    quantifier_rank,
    reduce_to_equality,
    reduce_to_inclusion,
    refine_step,
    rewrite_vd,
    standard_translation,
    variable_distinguished,
    witness_model,
)
from teamlogic.bisim import BisimRelation
from teamlogic.fo import (
    Const,
    FOAnd,
    FOExists,
    FOForall,
    FOImplies,
    FONot,
    FOOr,
    FORel,
    FOTrue,
    Var,
)
from teamlogic.reduce import KahrSentence, ReduceError
from teamlogic.syntax import (
    LFD,
    And,
    Anon,
    Dep,
    Eq,
    Exists,
    Forall,
    Incl,
    Neq,
    Or,
    RelLit,
    free_vars,
    KIND_D,
    KIND_NEQ,
    KIND_NOTIN,
    KIND_Y,
)


def _report(n: int, ok: bool) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _truth(model, phi):
    return Evaluator(model).truth_rows(phi)


# ---------------------------------------------------------------------------


def test_criterion_1_worked_fixtures():
    model = gen.ex_local_dep()

    def val(text, at):
        return check(parse_formula(text, model.ftype), model, at).value

    ok = (
        val("D[y] x", ("1", "1", "0")) is True
        and val("D[z] y", ("1", "2", "1")) is True
        and val("D[z] y", ("2", "2", "1")) is True
        and val("D[x] y", ("1", "1", "0")) is False
    )
    _report(1, ok)


def _population(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        model = gen.random_model(rng)
        phi = gen.random_formula(
            rng, model.ftype, OmegaProfile.full(), rank=3, size=7
        )
        yield model, phi


def test_criterion_2_oracle_equivalence():
    ok = True
    for model, phi in _population(20001, 1000):
        psi = standard_translation(phi, model.ftype)
        structure = expand(model)
        team_truth = _truth(model, phi)
        for i, row in enumerate(model.team):
            env = dict(zip(model.ftype.variables, row))
            if eval_fo(psi, structure, env) != team_truth[i]:
                ok = False
    _report(2, ok)


def test_criterion_3_locality():
    ok = True
    for model, phi in _population(20001, 1000):
        values = _truth(model, phi)
        fv = free_vars(phi)
        for i, s in enumerate(model.team):
            for j, t in enumerate(model.team):
                if model.agree(s, t, fv) and values[i] != values[j]:
                    ok = False
    _report(3, ok)


def test_criterion_4_variable_distinguished():
    rng = random.Random(42)
    ok = True
    for _ in range(200):
        model = gen.random_model(rng)
        vd, mapping = variable_distinguished(model)
        vs = vd.ftype.variables
        cols = {
            x: {row[i] for row in vd.team} for i, x in enumerate(vs)
        }
        for a in vs:
            for b in vs:
                if a < b and cols[a] & cols[b]:
                    ok = False
        phi = gen.random_formula(rng, model.ftype, LFD, rank=2)
        before = _truth(model, phi)
        ev = Evaluator(vd)
        for i, row in enumerate(model.team):
            if ev.truth(phi, mapping[row]) != before[i]:
                ok = False
    _report(4, ok)


def test_criterion_5_bisimulation_suite():
    from teamlogic.syntax import LFD_EQ

    left, right, stated = gen.ex_inc()
    verified, witness = check_is_bisimulation(stated, left, right, LFD_EQ)
    res = bisimilarity(
        PointedModel(left, ("a", "b")), PointedModel(right, ("1", "2")), LFD_EQ
    )
    incl = Incl(("x",), ("y",))
    undefinability = (
        check_global_atom(incl, left) is True
        and check_global_atom(incl, right) is False
    )

    gleft, gright, grel = gen.notgf2()
    gok, _ = check_is_bisimulation(grel, gleft, gright, LFD)
    gres = bisimilarity(
        PointedModel(gleft, gleft.team[0]),
        PointedModel(gright, gright.team[0]),
        LFD,
    )
    # the two-variable guarded sentence over the modal view:
    # every x-neighbour of the point is a y- or z-neighbour
    probe = parse_formula("D[x] y", gleft.ftype)

    def guarded_holds(model):
        srm = build_standard_relational_model(model, probe)
        point = Const(srm.row_names[0])
        t = Var("t")
        psi = FOForall(
            ("t",),
            FOImplies(
                FORel("~x", (t, point)),
                FOOr(FORel("~y", (t, point)), FORel("~z", (t, point))),
            ),
        )
        return eval_fo(psi, srm.structure, {})

    ok = (
        verified
        and witness is None
        and res.related
        and res.relation.fixpoint
        and undefinability
        and gok
        and gres.related
        and guarded_holds(gleft) is True
        and guarded_holds(gright) is False
    )
    _report(5, ok)


def test_criterion_6_ef_theorem():
    rng = random.Random(777)
    ok = True
    for _ in range(300):
        left = gen.random_model(rng, max_team=4)
        tuple_ok = len(left.ftype.variables) <= 2
        omega = gen.random_omega(rng, tuple_ok=tuple_ok)
        right = gen.random_model_of_type(rng, left.ftype, max_team=4)
        k = rng.randint(0, 3)
        Z = atom_agreement(left, right, omega)
        for _ in range(k):
            Z = refine_step(Z, left, right)
        # (a) forward: stage-k pairs agree on rank-k formulas
        lev, rev = Evaluator(left), Evaluator(right)
        for _ in range(3):
            phi = gen.random_formula(rng, left.ftype, omega, rank=k)
            assert quantifier_rank(phi) <= k
            for (i, j) in Z.pairs:
                if lev.truth(phi, left.team[i]) != rev.truth(
                    phi, right.team[j]
                ):
                    ok = False
        # (b) charform bridge, exhaustive over all point pairs
        chis = char_formula_all(left, k, omega)
        ev = Evaluator(right)
        for i in range(len(left.team)):
            for j in range(len(right.team)):
                if ev.truth(chis[i], right.team[j]) != ((i, j) in Z.pairs):
                    ok = False
    _report(6, ok)


def test_criterion_7_maximal_x_reduction():
    rng = random.Random(31337)
    ok = True
    done = 0
    while done < 100:
        left = gen.random_model(rng, max_team=5)
        right = gen.random_model_of_type(rng, left.ftype, max_team=5)
        omega = gen.random_omega(rng)
        Z = atom_agreement(left, right, omega)
        for _ in range(3):
            fast = refine_step(Z, left, right)
            if fast.pairs != gen.naive_refine(Z, left, right):
                ok = False
            done += 1
            if fast.pairs == Z.pairs:
                break
            Z = fast
    _report(7, ok)


def _random_matrix(rng, monadics):
    def literal():
        if monadics and rng.random() < 0.5:
            rel = rng.choice(monadics)
            return RelLit(rng.random() < 0.6, rel, (rng.choice(("x", "y", "z")),))
        args = (rng.choice(("x", "y", "z")), rng.choice(("x", "y", "z")))
        return RelLit(rng.random() < 0.8, "E", args)

    matrix = literal()
    for _ in range(rng.randint(0, 2)):
        other = literal()
        matrix = Or(matrix, other) if rng.random() < 0.7 else And(matrix, other)
    return matrix


def _find_skolem(psi, structure):
    matrix = standard_translation(psi.matrix, psi.matrix_type())
    f = {}
    for a in structure.universe:
        for b in structure.universe:
            if all(
                eval_fo(matrix, structure, {"x": a, "y": b, "z": c})
                for c in structure.universe
            ):
                f[a] = b
                break
        else:
            return None
    return f


def _kahr_fixtures(count):
    rng = random.Random(90210)
    out = []
    while len(out) < count:
        monadics = ("P",) if rng.random() < 0.5 else ()
        try:
            psi = KahrSentence("E", monadics, _random_matrix(rng, monadics))
        except ReduceError:
            continue
        n = rng.randint(1, 3)
        universe = tuple(str(i) for i in range(n))
        relations = {
            "E": frozenset(
                r for r in product(universe, repeat=2) if rng.random() < 0.6
            )
        }
        for m in monadics:
            relations[m] = frozenset(
                (e,) for e in universe if rng.random() < 0.5
            )
        structure = Structure(universe, relations)
        f = _find_skolem(psi, structure)
        if f is None:
            continue
        out.append((psi, structure, f))
    return out


def test_criterion_8_reduction_suite():
    ok = True
    fixtures = _kahr_fixtures(20)
    for psi, structure, f in fixtures:
        model = witness_model(psi, structure, f)
        incl = reduce_to_inclusion(psi)
        eq = reduce_to_equality(psi)
        for variant in (incl, eq):
            if not all(Evaluator(model).truth_rows(variant)):
                ok = False
        extracted = extract_classical_model(model, psi)
        if not eval_fo(kahr_fo_sentence(psi), extracted.structure, {}):
            ok = False

        def census(phi):
            counts = {"dep": 0, "copy": 0}

            def walk(g):
                if isinstance(g, (And, Or)):
                    for part in g.parts:
                        walk(part)
                elif isinstance(g, (Forall, Exists)):
                    walk(g.body)
                elif isinstance(g, Dep):
                    counts["dep"] += 1
                elif isinstance(g, (Incl, Eq)):
                    counts["copy"] += 1

            walk(phi)
            return counts

        for variant in (incl, eq):
            c = census(variant)
            if c != {"dep": 1, "copy": 6}:
                ok = False
            if len(psi.reduction_type().variables) != 4:
                ok = False
    _report(8, ok)


def test_criterion_9_rewrite_vd():
    rng = random.Random(1234)
    kinds = OmegaProfile(
        frozenset({KIND_D, KIND_Y, KIND_NEQ, KIND_NOTIN})
    )
    ok = True
    for _ in range(100):
        model = gen.random_model(rng)
        phi = gen.random_formula(rng, model.ftype, kinds, rank=2)
        out = rewrite_vd(phi, model.ftype)
        vd, mapping = variable_distinguished(model)
        ev = Evaluator(vd)
        before = [ev.truth(phi, mapping[row]) for row in model.team]
        after = [ev.truth(out, mapping[row]) for row in model.team]
        if before != after:
            ok = False
        if any(before) != any(after):
            ok = False
    _report(9, ok)


def _random_fo_literal(rng, vs):
    if rng.random() < 0.4:
        return FORel("P", (Var(rng.choice(vs)),))
    atom = FORel("E", (Var(rng.choice(vs)), Var(rng.choice(vs))))
    return FONot(atom) if rng.random() < 0.3 else atom


def _random_fo_matrix(rng, vs, size):
    """``size`` literals under junctions of two to ``size`` parts; a part
    may be a junction of the same kind."""
    if size <= 1:
        return _random_fo_literal(rng, vs)
    cuts = sorted(rng.sample(range(1, size), rng.randint(1, size - 1)))
    parts = [
        _random_fo_matrix(rng, vs, b - a)
        for a, b in zip([0, *cuts], [*cuts, size])
    ]
    return FOAnd(*parts) if rng.random() < 0.5 else FOOr(*parts)


def _fo_to_team(psi, ftype):
    if isinstance(psi, FORel):
        return RelLit(True, psi.rel, tuple(t.name for t in psi.args))
    if isinstance(psi, FONot):
        return RelLit(False, psi.body.rel, tuple(t.name for t in psi.body.args))
    if isinstance(psi, FOAnd):
        return And(*(_fo_to_team(p, ftype) for p in psi.parts))
    if isinstance(psi, FOOr):
        return Or(*(_fo_to_team(p, ftype) for p in psi.parts))
    if isinstance(psi, (FOExists, FOForall)):
        (x,) = psi.vars
        rest = ftype.varset(v for v in ftype.variables if v != x)
        ctor = Exists if isinstance(psi, FOExists) else Forall
        return ctor(rest, _fo_to_team(psi.body, ftype))
    raise AssertionError(type(psi).__name__)


def test_criterion_10_full_team_correspondence():
    rng = random.Random(5150)
    ok = True
    for _ in range(200):
        n_elems = rng.randint(1, 3)
        universe = tuple(str(i) for i in range(n_elems))
        n_vars = rng.randint(1, 3)
        vs = ("x", "y", "z")[:n_vars]
        relations = {
            "P": frozenset(
                (e,) for e in universe if rng.random() < 0.5
            ),
            "E": frozenset(
                r for r in product(universe, repeat=2) if rng.random() < 0.5
            ),
        }
        ftype = FiniteType((("P", 1), ("E", 2)), vs)
        structure = Structure(universe, relations)
        model = full_team(structure, ftype)
        sentence = _random_fo_matrix(rng, vs, rng.randint(1, 4))
        for x in rng.sample(vs, len(vs)):
            ctor = FOExists if rng.random() < 0.5 else FOForall
            sentence = ctor((x,), sentence)
        tarski = eval_fo(sentence, structure, {})
        team_phi = _fo_to_team(sentence, ftype)
        if any(v != tarski for v in _truth(model, team_phi)):
            ok = False
    _report(10, ok)


# (formula text, expected free-variable bound B)
PHI_T_FIXTURES = [
    ("x = x", 1),
    ("x = y", 2),
    ("x = y & y = z", 3),
    ("x = y | y = z", 3),
    ("x != y | x = y", 2),
    ("forall u . x = x", 1),
    ("forall u . (u = u | x = x)", 2),
    ("exists u . u = x", 2),
    ("exists u . (u = x & u = y)", 3),
    ("forall u . exists w . (u = w | x = x)", 3),
    ("x = y -> y = x", 2),
    ("x = x & y = y", 2),
    ("exists u . exists w . (u = w & x = y)", 4),
    ("forall u . (u = x -> u = y)", 3),
    ("x = y & (y = z | z = x)", 3),
    ("exists u . x != u", 2),
    ("forall u . exists w . (u = w & x = y)", 4),
    ("x != x | y = y", 2),
    ("exists u . (u = x | u = y | u = z)", 4),
    ("forall u . (x = y & u = u)", 3),
]


def test_criterion_11_mcfo_materialization():
    ok = True
    # full team from the trivially true definition
    structure = Structure(("0", "1"), {})
    ftype = FiniteType((), ("x", "y"))
    mat = materialize_fo_team(structure, ftype, FOTrue())
    if set(mat.model.team) != set(product(("0", "1"), repeat=2)):
        ok = False
    if mat.model != full_team(structure, ftype):
        ok = False
    # the diagonal example
    diag = materialize_fo_team(
        structure, ftype, parse_fo("x = y", ("x", "y"))
    )
    if set(diag.model.team) != {("0", "0"), ("1", "1")}:
        ok = False
    # reported bound on handwritten fixtures
    big = Structure(("0", "1", "2"), {})
    ftype3 = FiniteType((), ("x", "y", "z"))
    names = ("x", "y", "z", "u", "w")
    for text, expected in PHI_T_FIXTURES:
        phi_t = parse_fo(text, names)
        mt = materialize_fo_team(big, ftype3, phi_t)
        if mt.free_var_bound != expected:
            print(f"  bound mismatch for {text!r}: "
                  f"got {mt.free_var_bound}, expected {expected}")
            ok = False
    _report(11, ok)
