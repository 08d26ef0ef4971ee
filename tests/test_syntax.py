import random

import pytest
from hypothesis import given, settings, strategies as st

import gen
from teamlogic import (
    And,
    Anon,
    Dep,
    Eq,
    Excl,
    Exists,
    FiniteType,
    Forall,
    FormulaError,
    Incl,
    Ind,
    Neq,
    Not,
    OmegaProfile,
    Or,
    RelLit,
    char_formula_all,
    check,
    free_vars,
    infer_omega,
    is_nnf,
    negate_atom,
    parse_formula,
    print_formula,
    quantifier_rank,
    to_nnf,
    validate,
)
from teamlogic.syntax import LFD, LFD_EQ, KIND_D, KIND_IND, KIND_Y, conj, disj


FT = FiniteType((("P", 1), ("E", 2)), ("x", "y", "z"))


def test_finite_type_validation():
    with pytest.raises(FormulaError):
        FiniteType((("P", 1), ("P", 2)), ("x",))
    with pytest.raises(FormulaError):
        FiniteType((), ())
    with pytest.raises(FormulaError):
        FiniteType((), ("x", "x"))
    with pytest.raises(FormulaError):
        FiniteType((("P", 0),), ("x",))


def test_varset_canonical_order():
    assert FT.varset(("z", "x", "z")) == ("x", "z")
    with pytest.raises(FormulaError):
        FT.varset(("w",))


def test_parse_basic_atoms():
    assert parse_formula("P(x)", FT) == RelLit(True, "P", ("x",))
    assert parse_formula("!E(x y)", FT) == RelLit(False, "E", ("x", "y"))
    assert parse_formula("x = y", FT) == Eq("x", "y")
    assert parse_formula("x != y", FT) == Neq("x", "y")
    assert parse_formula("D[x z] y", FT) == Dep(("x", "z"), "y")
    assert parse_formula("Y[] x", FT) == Anon((), "x")
    assert parse_formula("in(x y ; y z)", FT) == Incl(("x", "y"), ("y", "z"))
    assert parse_formula("Ind[x z](y z)", FT) == Ind(("x", "z"), ("y", "z"))


def test_parse_quantifiers_and_precedence():
    phi = parse_formula("E[x] P(y) & P(x) | D[] z", FT)
    # & over |, quantifier binds one unit
    assert phi == Or(
        And(Exists(("x",), RelLit(True, "P", ("y",))), RelLit(True, "P", ("x",))),
        Dep((), "z"),
    )


def test_parse_canonicalizes_variable_sets():
    assert parse_formula("A[z x] P(y)", FT).fixed == ("x", "z")
    assert parse_formula("D[y x] z", FT).over == ("x", "y")


def test_parse_global_sugar():
    assert parse_formula("dep(x ; y)", FT) == Forall((), Dep(("x",), "y"))
    assert parse_formula("anon( ; y)", FT) == Forall((), Anon((), "y"))
    assert parse_formula("incl(x ; y)", FT) == Forall((), Incl(("x",), ("y",)))
    assert parse_formula("excl(x ; z)", FT) == Forall((), Excl(("x",), ("z",)))
    assert parse_formula("indep(x ; y)", FT) == Forall((), Ind(("x",), ("y",)))


def test_parse_errors():
    for bad in (
        "P(x",
        "P(x y)",
        "Q(x)",
        "x =",
        "D[w] x",
        "in(x ; y z)",
        "in( ; y)",
        "P(x) &",
        "P(x) P(y)",
    ):
        with pytest.raises(FormulaError):
            parse_formula(bad, FT)


def test_not_is_sugar():
    phi = parse_formula("not P(x)", FT)
    assert phi == Not(RelLit(True, "P", ("x",)))
    assert not is_nnf(phi)
    assert to_nnf(phi) == RelLit(False, "P", ("x",))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    omega = gen.random_omega(rng)
    phi = gen.random_formula(rng, FT, omega, rank=3)
    assert parse_formula(print_formula(phi), FT) == phi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_printer_matches_reference(seed):
    """print_formula prints what the recursive tree printer prints: on
    random formulas, on a DAG using one of them at every precedence level,
    and on every characteristic formula of a random model."""
    rng = random.Random(seed)
    size = rng.randint(1, 12)
    phi = gen.random_formula(rng, FT, gen.random_omega(rng), rank=3, size=size)
    shared = Not(And(phi, Or(Not(phi), Exists(("x",), Not(Forall((), phi))))))
    for f in (phi, shared, Or(shared, And(phi, shared))):
        assert print_formula(f) == gen.reference_print(f)
    model = gen.random_model(rng, max_team=4)
    omega = gen.random_omega(rng, tuple_ok=len(model.ftype.variables) <= 2)
    for chi in char_formula_all(model, rng.randint(0, 2), omega):
        assert print_formula(chi) == gen.reference_print(chi)


def test_printer_long_chains():
    """Flat chains and deep prefix nesting print without recursion; the
    recursive printer raises RecursionError on each of them."""
    n = 100_000
    atom = Eq("x", "y")
    assert print_formula(conj([atom] * n)) == " & ".join(["x = y"] * n)
    assert print_formula(disj([atom] * n)) == " | ".join(["x = y"] * n)
    nested = atom
    for _ in range(n):
        nested = Exists(("x",), nested)
    assert print_formula(nested) == "E[x] " * n + "x = y"
    nested = Not(nested)
    assert print_formula(And(atom, nested)) == f"x = y & not {'E[x] ' * n}x = y"


def test_is_nnf_on_shared_dag():
    """is_nnf, validate, free_vars, quantifier_rank, infer_omega and to_nnf
    visit each node object once: 64 levels of And(f, f) have 2^64 tree
    nodes.  to_nnf keeps the sharing."""
    bottom = Eq("x", "x")
    f, g = bottom, Not(bottom)
    for _ in range(64):
        f, g = And(f, f), And(g, g)
    assert is_nnf(f)
    assert not is_nnf(g)
    for h in (And(f, Not(bottom)), Or(Not(bottom), f), Exists((), Or(f, g))):
        assert not is_nnf(h)
    model = gen.ex_local_dep()
    assert check(f, model, model.team[0]).value
    for h, value in ((g, False), (Not(f), False), (Not(g), True)):
        nnf = to_nnf(h)
        assert is_nnf(nnf) and nnf.parts[0] is nnf.parts[1]
        assert check(nnf, model, model.team[0]).value is value
    top = Or(Exists(("y",), g), Dep(("x",), "y"))
    validate(top, FT)
    assert free_vars(top) == {"x", "y"}
    assert quantifier_rank(top) == 1
    assert infer_omega(top).kinds == {KIND_D, "="}
    with pytest.raises(FormulaError):
        validate(And(f, Exists(("w",), g)), FT)


def test_nested_junction_keeps_its_parentheses():
    """A junction that is a part of one of the same kind prints in
    parentheses and parses back as a part of its own; an unparenthesised
    chain parses into one node."""
    a, b, c = Eq("x", "y"), RelLit(True, "P", ("x",)), Dep((), "z")
    cases = {
        "(x = y & P(x)) & D[] z": And(And(a, b), c),
        "x = y & (P(x) & D[] z)": And(a, And(b, c)),
        "(x = y | P(x)) | D[] z": Or(Or(a, b), c),
        "x = y & P(x) & D[] z": And(a, b, c),
        "x = y | P(x) & D[] z | x = y": Or(a, And(b, c), a),
        "(x = y | P(x)) & D[] z": And(Or(a, b), c),
    }
    for text, phi in cases.items():
        assert print_formula(phi) == text
        assert parse_formula(text, FT) == phi
    for junction in (And, Or):
        with pytest.raises(FormulaError):
            junction(a)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_nnf_is_not_free_and_idempotent(seed):
    rng = random.Random(seed)
    phi = gen.random_formula(rng, FT, OmegaProfile.full(), rank=2)
    wrapped = Not(Or(phi, Not(phi)))
    nnf = to_nnf(wrapped)
    assert is_nnf(nnf)
    assert to_nnf(nnf) == nnf
    validate(nnf, FT)


def test_nnf_duals():
    assert to_nnf(Not(Dep(("x",), "y"))) == Anon(("x",), "y")
    assert to_nnf(Not(Eq("x", "y"))) == Neq("x", "y")
    assert to_nnf(Not(Incl(("x",), ("y",)))) == Excl(("x",), ("y",))
    assert to_nnf(Not(Forall(("x",), Eq("x", "y")))) == Exists(
        ("x",), Neq("x", "y")
    )
    assert to_nnf(Not(And(Eq("x", "y"), Neq("y", "z")))) == Or(
        Neq("x", "y"), Eq("y", "z")
    )


def test_negate_atom_respects_profile():
    assert negate_atom(Dep((), "x"), LFD) == Anon((), "x")
    with pytest.raises(FormulaError):
        negate_atom(Ind(("x",), ("y",)), LFD)
    with pytest.raises(FormulaError):
        to_nnf(Not(Dep((), "x")), OmegaProfile.of(KIND_D))


def test_omega_profiles():
    assert LFD.is_negation_closed()
    assert LFD_EQ.is_negation_closed()
    assert not OmegaProfile.of(KIND_D).is_negation_closed()
    assert OmegaProfile.of(KIND_D).closed_under_negation() == LFD
    assert KIND_IND in OmegaProfile.full()
    with pytest.raises(FormulaError):
        OmegaProfile.of("bogus")


def test_infer_omega():
    phi = parse_formula("D[x] y & (x != z | Ind[x](y))", FT)
    assert infer_omega(phi).kinds == frozenset({KIND_D, "!=", "Ind"})
    assert infer_omega(parse_formula("P(x)", FT)).kinds == frozenset()


def test_free_vars():
    assert free_vars(parse_formula("D[x z] y", FT)) == {"x", "z"}
    assert free_vars(parse_formula("E[x] P(y)", FT)) == {"x"}
    assert free_vars(parse_formula("in(x y ; y z)", FT)) == {"x", "y"}
    assert free_vars(parse_formula("Ind[z](x)", FT)) == {"z"}
    assert free_vars(parse_formula("P(x) & y = z", FT)) == {"x", "y", "z"}
    assert free_vars(parse_formula("A[] P(x)", FT)) == frozenset()


def test_quantifier_rank():
    assert quantifier_rank(parse_formula("P(x)", FT)) == 0
    assert quantifier_rank(parse_formula("E[x] A[y] P(z)", FT)) == 2
    assert quantifier_rank(parse_formula("E[x] P(x) & A[] A[] P(y)", FT)) == 2
    assert quantifier_rank(parse_formula("dep(x ; y)", FT)) == 1


def test_validate_rejects_malformed():
    with pytest.raises(FormulaError):
        validate(Dep(("z", "x"), "y"), FT)  # not canonical
    with pytest.raises(FormulaError):
        validate(Incl(("x",), ("y", "z")), FT)
    with pytest.raises(FormulaError):
        validate(Incl((), ()), FT)
    with pytest.raises(FormulaError):
        validate(RelLit(True, "P", ("x", "y")), FT)
