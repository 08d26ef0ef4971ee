import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import gen
from teamlogic import (
    DependenceModel,
    Evaluator,
    FiniteType,
    KahrSentence,
    ReduceError,
    Structure,
    check,
    eval_fo,
    extract_classical_model,
    kahr_fo_sentence,
    parse_formula,
    parse_kahr,
    reduce_to_equality,
    reduce_to_inclusion,
    rewrite_vd,
    variable_distinguished,
    witness_model,
)
from teamlogic.syntax import (
    And,
    Anon,
    Dep,
    Eq,
    Excl,
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
    OmegaProfile,
)

SIMPLE = "binary E\nmatrix E(x y)\n"


def _atom_census(phi):
    counts = {"dep": 0, "incl": 0, "eq": 0, "rel": 0, "other": 0}

    def walk(f):
        if isinstance(f, (And, Or)):
            for part in f.parts:
                walk(part)
        elif isinstance(f, (Forall, Exists)):
            walk(f.body)
        elif isinstance(f, Dep):
            counts["dep"] += 1
        elif isinstance(f, Incl):
            counts["incl"] += 1
        elif isinstance(f, Eq):
            counts["eq"] += 1
        elif isinstance(f, RelLit):
            counts["rel"] += 1
        else:
            counts["other"] += 1

    walk(phi)
    return counts


def test_parse_kahr_valid():
    psi = parse_kahr(SIMPLE)
    assert psi.binary == "E" and psi.monadics == ()
    assert psi.matrix == RelLit(True, "E", ("x", "y"))


def test_parse_kahr_with_monadics_and_negation():
    psi = parse_kahr("binary E\nmonadic P Q\nmatrix E(x y) & (!P(z) | P(x))\n")
    assert psi.monadics == ("P", "Q")
    assert _atom_census(psi.matrix)["rel"] == 3


def test_parse_kahr_rejects_equality():
    with pytest.raises(ReduceError):
        parse_kahr("binary E\nmatrix x = y\n")


def test_parse_kahr_rejects_quantifiers_and_bad_format():
    with pytest.raises(ReduceError):
        parse_kahr("binary E\nmatrix E[x] E(x y)\n")
    with pytest.raises(ReduceError):
        parse_kahr("matrix E(x y)\n")
    with pytest.raises(ReduceError):
        parse_kahr("binary E F\nmatrix E(x y)\n")


def test_kahr_sentence_rejects_foreign_variable():
    ftype = FiniteType((("E", 2),), ("x", "y", "z"))
    with pytest.raises(Exception):
        KahrSentence("E", (), RelLit(True, "E", ("x", "w")))


def test_reduction_shapes():
    psi = parse_kahr(SIMPLE)
    incl = reduce_to_inclusion(psi)
    eq = reduce_to_equality(psi)
    ci, ce = _atom_census(incl), _atom_census(eq)
    assert ci["dep"] == 1 and ci["incl"] == 6 and ci["eq"] == 0
    assert ce["dep"] == 1 and ce["eq"] == 6 and ce["incl"] == 0
    assert ci["other"] == ce["other"] == 0
    assert psi.reduction_type().variables == ("x", "y", "z", "v")
    # no Y, =, != atoms ever appear in the inclusion form
    assert free_vars(incl) <= set(("x", "y", "z", "v"))


def test_witness_model_singleton():
    psi = parse_kahr(SIMPLE)
    structure = Structure(("0",), {"E": frozenset({("0", "0")})})
    model = witness_model(psi, structure, {"0": "0"})
    assert model.team == (("0", "0", "0", "0"),)
    for variant in (reduce_to_inclusion(psi), reduce_to_equality(psi)):
        assert check(variant, model, model.team[0]).value


def test_witness_model_two_elements():
    psi = parse_kahr(SIMPLE)
    structure = Structure(
        ("0", "1"), {"E": frozenset({("0", "0"), ("1", "1")})}
    )
    f = {"0": "0", "1": "1"}
    model = witness_model(psi, structure, f)
    assert len(model.team) == 8
    ev = Evaluator(model)
    for variant in (reduce_to_inclusion(psi), reduce_to_equality(psi)):
        assert all(ev.truth_rows(variant))


def test_witness_model_rejects_bad_skolem():
    psi = parse_kahr(SIMPLE)
    structure = Structure(
        ("0", "1"), {"E": frozenset({("0", "0"), ("1", "1")})}
    )
    with pytest.raises(ReduceError):
        witness_model(psi, structure, {"0": "1", "1": "0"})
    with pytest.raises(ReduceError):
        witness_model(psi, structure, {"0": "0"})


def test_witness_model_size_guard():
    psi = parse_kahr(SIMPLE)
    structure = Structure(
        ("0", "1"), {"E": frozenset(product(("0", "1"), repeat=2))}
    )
    with pytest.raises(ReduceError):
        witness_model(psi, structure, {"0": "0", "1": "1"}, max_team=7)


def test_extract_round_trip_all_start_rows():
    psi = parse_kahr("binary E\nmonadic P\nmatrix E(x y) | P(z)\n")
    structure = Structure(
        ("0", "1"),
        {"E": frozenset({("0", "1"), ("1", "0")}), "P": frozenset({("0",)})},
    )
    f = {"0": "1", "1": "0"}
    model = witness_model(psi, structure, f)
    for start in range(len(model.team)):
        extracted = extract_classical_model(model, psi, start_row=start)
        assert set(extracted.structure.universe) <= set(structure.universe)
        assert eval_fo(kahr_fo_sentence(psi), extracted.structure, {})


def test_extract_rejects_non_model():
    psi = parse_kahr(SIMPLE)
    ftype = psi.reduction_type()
    bad = DependenceModel(
        ftype,
        Structure(("0",), {"E": frozenset()}),
        (("0", "0", "0", "0"),),
    )
    with pytest.raises(ReduceError):
        extract_classical_model(bad, psi)


def test_extract_requires_reduction_variables():
    psi = parse_kahr(SIMPLE)
    model = gen.ex_local_dep()
    with pytest.raises(ReduceError):
        extract_classical_model(model, psi)


# ---------------------------------------------------------------------------
# tuple-atom elimination


def test_rewrite_vd_syntactic_truth():
    ftype = FiniteType((("P", 1),), ("x", "y"))
    taut = rewrite_vd(Neq("x", "y"), ftype)
    assert taut == Or(Dep((), "x"), Anon((), "x"))
    contradiction = rewrite_vd(Neq("x", "x"), ftype)
    assert contradiction == And(Dep((), "x"), Anon((), "x"))
    # constants simplify away inside context
    phi = Or(Neq("x", "x"), RelLit(True, "P", ("x",)))
    assert rewrite_vd(phi, ftype) == RelLit(True, "P", ("x",))
    psi = And(Excl(("x", "y"), ("y", "x")), RelLit(True, "P", ("y",)))
    assert rewrite_vd(psi, ftype) == RelLit(True, "P", ("y",))


def test_rewrite_vd_through_quantifiers():
    ftype = FiniteType((), ("x", "y"))
    phi = Forall(("x",), Or(Neq("x", "y"), Dep(("x",), "y")))
    assert rewrite_vd(phi, ftype) == Or(Dep((), "x"), Anon((), "x"))


def test_rewrite_vd_rejects_foreign_atoms():
    ftype = FiniteType((), ("x", "y"))
    with pytest.raises(Exception):
        rewrite_vd(Eq("x", "y"), ftype)
    with pytest.raises(Exception):
        rewrite_vd(Incl(("x",), ("y",)), ftype)


VD_KINDS = OmegaProfile(frozenset({KIND_D, KIND_Y, KIND_NEQ, KIND_NOTIN}))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_rewrite_vd_pointwise_on_vd_models(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    phi = gen.random_formula(rng, model.ftype, VD_KINDS, rank=2)
    vd, mapping = variable_distinguished(model)
    out = rewrite_vd(phi, model.ftype)
    evd = Evaluator(vd)
    for row in model.team:
        assert evd.truth(phi, mapping[row]) == evd.truth(out, mapping[row])
