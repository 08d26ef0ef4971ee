import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import gen
from teamlogic import (
    Eq,
    Evaluator,
    Excl,
    FiniteType,
    Incl,
    OmegaProfile,
    TranslationError,
    build_standard_relational_model,
    eval_fo,
    expand,
    guarded_translation,
    modal_translation,
    parse_formula,
    parse_fo,
    print_fo,
    standard_translation,
)
from teamlogic.fo import (
    FOAnd,
    FOEq,
    FOExists,
    FOFalse,
    FOForall,
    FONot,
    FORel,
    FOTrue,
    Var,
    free_variables,
    max_free_vars,
)
from teamlogic.syntax import KIND_D, KIND_EQ, KIND_IND, KIND_NEQ, KIND_NIND, KIND_Y


def test_parse_fo_basics():
    f = parse_fo("forall u . (P(u) -> exists w . E(u w))", ("u", "w"))
    assert isinstance(f, FOForall)
    g = parse_fo("x = a", ("x",))
    assert g == FOEq(Var("x"), __import__("teamlogic").fo.Const("a"))
    assert parse_fo("x != y", ("x", "y")) == FONot(FOEq(Var("x"), Var("y")))
    with pytest.raises(TranslationError):
        parse_fo("P(x", ("x",))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_print_parse_fo_roundtrip(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    phi = gen.random_formula(rng, model.ftype, OmegaProfile.full(), rank=2)
    psi = standard_translation(phi, model.ftype)
    names = set(model.ftype.variables) | {
        f"z1_{v}" for v in model.ftype.variables
    } | {f"z2_{v}" for v in model.ftype.variables}
    assert parse_fo(print_fo(psi), names) == psi


def test_eval_fo_basics():
    model = gen.ex_local_dep()
    structure = expand(model)
    env = {"x": "1", "y": "1", "z": "0"}
    assert eval_fo(parse_fo("T(x y z)", ("x", "y", "z")), structure, env)
    assert not eval_fo(
        parse_fo("T(x x x)", ("x", "y", "z")), structure, env
    )
    assert eval_fo(FOTrue(), structure, {})
    assert not eval_fo(FOFalse(), structure, {})


def test_free_variables_and_bound():
    psi = parse_fo("forall u . (E(u w) & P(v))", ("u", "v", "w"))
    assert free_variables(psi) == {"v", "w"}
    assert max_free_vars(psi) == 3


def _team_truth(phi, model):
    return Evaluator(model).truth_rows(phi)


def _fo_truth(phi, model):
    psi = standard_translation(phi, model.ftype)
    structure = expand(model)
    return [
        eval_fo(psi, structure, dict(zip(model.ftype.variables, row)))
        for row in model.team
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_standard_translation_soundness(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    omega = gen.random_omega(rng)
    phi = gen.random_formula(rng, model.ftype, omega, rank=2)
    assert _team_truth(phi, model) == _fo_truth(phi, model)


def test_standard_translation_dep_target_in_fixed_set():
    # D[x y] y is valid; its translation must be too
    model = gen.ex_local_dep()
    phi = parse_formula("D[x y] y", model.ftype)
    assert _fo_truth(phi, model) == [True] * len(model.team)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_guarded_translation_agrees(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    vs = model.ftype.variables
    r = rng.randint(1, len(vs))
    left = tuple(rng.choice(vs) for _ in range(r))
    right = tuple(rng.choice(vs) for _ in range(r))
    beta = Incl(left, right) if rng.random() < 0.5 else Excl(left, right)
    structure = expand(model)
    guarded = guarded_translation(beta, model.ftype)
    direct = standard_translation(beta, model.ftype)
    for row in model.team:
        env = dict(zip(vs, row))
        assert eval_fo(guarded, structure, env) == eval_fo(direct, structure, env)


def test_guarded_translation_rejects_other_atoms():
    ftype = FiniteType((), ("x", "y"))
    with pytest.raises(TranslationError):
        guarded_translation(Eq("x", "y"), ftype)


def test_modal_translation_rejects_equality():
    ftype = FiniteType((), ("x", "y"))
    with pytest.raises(TranslationError):
        modal_translation(Eq("x", "y"))
    with pytest.raises(TranslationError):
        modal_translation(Incl(("x",), ("y",)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_modal_translation_agrees_with_checker(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    kinds = frozenset({KIND_D, KIND_Y})
    if rng.random() < 0.5:
        kinds |= {KIND_IND, KIND_NIND}
    phi = gen.random_formula(rng, model.ftype, OmegaProfile(kinds), rank=2)
    srm = build_standard_relational_model(model, phi)
    psi = modal_translation(phi)
    team_truth = _team_truth(phi, model)
    for i in range(len(model.team)):
        env = {"w0": srm.name_of(i)}
        assert eval_fo(psi, srm.structure, env) == team_truth[i]


def test_modal_structure_shape():
    model = gen.ex_local_dep()
    phi = parse_formula("D[y] x", model.ftype)
    srm = build_standard_relational_model(model, phi)
    assert srm.row_names == ("s0", "s1", "s2", "s3")
    sim_y = srm.structure.relations["~y"]
    assert ("s2", "s3") in sim_y and ("s0", "s1") not in sim_y
    # reflexive and symmetric
    for n in srm.row_names:
        assert (n, n) in sim_y
    assert all((b, a) in sim_y for a, b in sim_y)
