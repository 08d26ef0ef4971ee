import random

import pytest
from hypothesis import given, settings, strategies as st

import gen
from teamlogic import (
    DependenceModel,
    FiniteType,
    ModelError,
    PointedModel,
    Structure,
    disjoint_union,
    dump_model,
    expand,
    full_team,
    load_model,
    materialize_fo_team,
    variable_distinguished,
)
from teamlogic import fo


SAMPLE = """\
# three variables, one unary relation
universe 0 1 2
vars x y z
rel P 1
0
2
end
team
0 0 0
1 1 0
1 2 1
2 2 1
end
"""


def test_load_model_sample():
    model = load_model(SAMPLE)
    assert model.structure.universe == ("0", "1", "2")
    assert model.ftype.variables == ("x", "y", "z")
    assert model.structure.relations["P"] == frozenset({("0",), ("2",)})
    assert len(model.team) == 4
    assert model.team[0] == ("0", "0", "0")


def test_dump_load_roundtrip():
    model = load_model(SAMPLE)
    again = load_model(dump_model(model))
    assert again == model


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_dump_load_roundtrip_random(seed):
    model = gen.random_model(random.Random(seed))
    assert load_model(dump_model(model)) == model


def test_load_model_errors():
    for text in (
        "vars x\nteam\n0\nend",  # no universe
        "universe 0\nteam\n0\nend",  # no vars
        "universe 0\nvars x",  # no team
        "universe 0\nvars x\nteam\nend",  # empty team
        "universe 0\nvars x\nteam\n0\n0\nend",  # duplicate row
        "universe 0\nvars x y\nteam\n0\nend",  # row width
        "universe 0\nvars x\nteam\n1\nend",  # unknown element
        "universe 0\nvars x\nrel P 1\n0\nteam\n0\nend",  # missing end
        "universe 0\nvars x\nbogus\nteam\n0\nend",
    ):
        with pytest.raises(ModelError):
            load_model(text)


def test_load_model_without_team():
    structure, ftype = load_model(
        "universe 0 1\nvars x y\n", require_team=False
    )
    assert isinstance(structure, Structure)
    assert ftype.variables == ("x", "y")


def test_model_validation():
    ftype = FiniteType((("P", 1),), ("x",))
    st_ = Structure(("0",), {"P": frozenset({("0", "0")})})
    with pytest.raises(ModelError):
        DependenceModel(ftype, st_, (("0",),))  # arity mismatch
    with pytest.raises(ModelError):
        PointedModel(
            DependenceModel(ftype, Structure(("0",), {}), (("0",),)), ("1",)
        )


def test_row_helpers():
    model = gen.ex_local_dep()
    s = ("1", "2", "1")
    assert model.row_index(s) == 2
    assert model.values(s, ("y",)) == ("2",)
    assert model.values(s, ("z", "x")) == ("1", "1")
    assert model.agree(s, ("2", "2", "1"), ("z",))
    assert not model.agree(s, ("2", "2", "1"), ("x", "z"))
    with pytest.raises(ModelError):
        model.row_index(("9", "9", "9"))


def test_project():
    # the value sets of variable tuples over the team
    model = gen.ex_local_dep()
    assert {model.values(t, ("x",)) for t in model.team} == {("0",), ("1",), ("2",)}
    assert {model.values(t, ("y", "z")) for t in model.team} == {
        ("0", "0"),
        ("1", "0"),
        ("2", "1"),
    }


def test_full_team():
    ftype = FiniteType((), ("x", "y"))
    model = full_team(Structure(("0", "1"), {}), ftype)
    assert len(model.team) == 4
    with pytest.raises(ModelError):
        full_team(Structure(tuple(str(i) for i in range(11)), {}), ftype, max_team=100)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_variable_distinguished_columns_disjoint(seed):
    model = gen.random_model(random.Random(seed))
    vd, mapping = variable_distinguished(model)
    vs = vd.ftype.variables
    cols = [{vd.values(row, (v,)) for row in vd.team} for v in vs]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            assert not (cols[i] & cols[j])
    # the row bijection preserves relational facts on team rows
    for old, new in mapping.items():
        for rel, ar in model.ftype.relations:
            for args in [(v,) * ar for v in model.ftype.variables]:
                assert model.structure.holds(
                    rel, model.values(old, args)
                ) == vd.structure.holds(rel, vd.values(new, args))


def test_disjoint_union():
    a = gen.ex_local_dep()
    b = gen.ex_local_dep()
    u = disjoint_union(a, b)
    assert len(u.team) == 8
    assert len(u.structure.universe) == 6
    left_elems = {e for row in u.team[:4] for e in row}
    right_elems = {e for row in u.team[4:] for e in row}
    assert not (left_elems & right_elems)
    with pytest.raises(ModelError):
        disjoint_union(a, gen.ex_inc()[0])


def test_expand_adds_team_predicate():
    model = gen.ex_local_dep()
    st_ = expand(model)
    assert st_.relations["T"] == frozenset(model.team)
    ftype = FiniteType((("T", 1),), ("x",))
    bad = DependenceModel(
        ftype, Structure(("0",), {"T": frozenset({("0",)})}), (("0",),)
    )
    with pytest.raises(ModelError):
        expand(bad)


def test_materialize_fo_team_diagonal():
    structure = Structure(("0", "1"), {})
    ftype = FiniteType((), ("x", "y"))
    mat = materialize_fo_team(structure, ftype, fo.parse_fo("x = y", ("x", "y")))
    assert mat.model.team == (("0", "0"), ("1", "1"))
    assert mat.free_var_bound == 2


def test_materialize_fo_team_true_is_full():
    structure = Structure(("0", "1"), {})
    ftype = FiniteType((), ("x", "y"))
    mat = materialize_fo_team(structure, ftype, fo.FOTrue())
    assert set(mat.model.team) == set(full_team(structure, ftype).team)
    assert mat.free_var_bound == 0


def test_materialize_fo_team_errors():
    structure = Structure(("0", "1"), {})
    ftype = FiniteType((), ("x",))
    with pytest.raises(ModelError):
        materialize_fo_team(structure, ftype, fo.FOFalse())
    with pytest.raises(ModelError):
        materialize_fo_team(
            structure, ftype, fo.FOEq(fo.Var("x"), fo.Var("w"))
        )
