import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import gen
from teamlogic import (
    DependenceModel,
    Evaluator,
    FiniteType,
    FormulaError,
    OmegaProfile,
    Structure,
    atom_agreement,
    char_formula,
    char_formula_all,
    canonical_atoms,
    check,
    eval_local_atom,
    print_formula,
    quantifier_rank,
    refine_step,
)
from teamlogic.syntax import (
    LFD,
    LFD_EQ,
    And,
    Anon,
    Dep,
    Forall,
    KIND_D,
    KIND_EQ,
    KIND_NEQ,
    RelLit,
)


def _stage_relation(left, right, omega, k):
    Z = atom_agreement(left, right, omega)
    for _ in range(k):
        Z = refine_step(Z, left, right)
    return Z


def test_rejects_non_negation_closed_profile():
    model = gen.ex_local_dep()
    with pytest.raises(FormulaError):
        char_formula(model, model.team[0], 1, OmegaProfile(frozenset({KIND_D})))
    with pytest.raises(FormulaError):
        char_formula(model, model.team[0], -1, LFD)


def test_quantifier_rank_exact():
    model = gen.ex_local_dep()
    s = model.team[0]
    for k in range(4):
        assert quantifier_rank(char_formula(model, s, k, LFD)) == k


def test_base_case_singleton():
    # singleton team over one variable: P(x) and constancy hold, Y[]x fails
    ftype = FiniteType((("P", 1),), ("x",))
    model = DependenceModel(
        ftype, Structure(("a",), {"P": frozenset({("a",)})}), (("a",),)
    )
    chi = char_formula(model, ("a",), 0, LFD)

    def conjuncts(f):
        from teamlogic.syntax import And

        if isinstance(f, And):
            for part in f.parts:
                yield from conjuncts(part)
        else:
            yield f

    parts = list(conjuncts(chi))
    assert RelLit(True, "P", ("x",)) in parts
    assert Dep((), "x") in parts
    assert Anon((), "x") not in parts


def test_base_case_self_satisfaction():
    model = gen.ex_local_dep()
    for s in model.team:
        chi = char_formula(model, s, 0, OmegaProfile.full())
        assert check(chi, model, s).value


def test_char_formula_all_matches_pointwise():
    model = gen.ex_local_dep()
    for k in range(3):
        all_chis = char_formula_all(model, k, LFD_EQ)
        for i, s in enumerate(model.team):
            assert all_chis[i] == char_formula(model, s, k, LFD_EQ)


def test_ex_inc_cross_satisfaction():
    # fully bisimilar points satisfy each other's rank-2 formulas
    left, right, _ = gen.ex_inc()
    chi_left = char_formula(left, ("a", "b"), 2, LFD_EQ)
    chi_right = char_formula(right, ("1", "2"), 2, LFD_EQ)
    assert check(chi_left, right, ("1", "2")).value
    assert check(chi_right, left, ("a", "b")).value


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_defining_property(seed):
    """right satisfies chi^k of left row i at row j iff (i,j) survives k
    refinement rounds, exhaustively over all row pairs."""
    rng = random.Random(seed)
    left = gen.random_model(rng, max_team=4)
    tuple_ok = len(left.ftype.variables) <= 2
    omega = gen.random_omega(rng, tuple_ok=tuple_ok)
    right = gen.random_model_of_type(rng, left.ftype, max_team=4)
    k = rng.randint(0, 2)
    Z = _stage_relation(left, right, omega, k)
    chis = char_formula_all(left, k, omega)
    ev = Evaluator(right)
    for i in range(len(left.team)):
        for j in range(len(right.team)):
            holds = ev.truth(chis[i], right.team[j])
            assert holds == ((i, j) in Z.pairs)


def test_within_model_class_idempotence():
    model = gen.ex_local_dep()
    k = 2
    Z = _stage_relation(model, model, LFD, k)
    chis = char_formula_all(model, k, LFD)
    ev = Evaluator(model)
    for (i, j) in Z.pairs:
        assert ev.truth(chis[i], model.team[j])
        assert ev.truth(chis[j], model.team[i])


def test_atoms_restricted_to_profile():
    model = gen.ex_local_dep()
    atoms = canonical_atoms(model.ftype, LFD)
    chi = char_formula(model, model.team[0], 0, LFD)
    # every conjunct of chi^0 evaluates like a canonical atom at the point
    for a in atoms:
        assert eval_local_atom(a, model, model.team[0]) in (True, False)


def test_single_variable_equality_profile():
    """One variable, no relations and the profile {=, !=}: the canonical
    atom family is empty and x = x serves as the rank-0 formula."""
    ftype = FiniteType((), ("x",))
    model = DependenceModel(
        ftype, Structure(("0", "1", "2"), {}), (("0",), ("1",), ("2",))
    )
    omega = OmegaProfile.of(KIND_EQ, KIND_NEQ)
    ev = Evaluator(model)
    assert all(all(ev.truth_rows(chi)) for chi in char_formula_all(model, 0, omega))
    for k in range(3):
        Z = _stage_relation(model, model, omega, k)
        chis = char_formula_all(model, k, omega)
        for i in range(len(model.team)):
            assert ev.truth_rows(chis[i]) == [
                (i, j) in Z.pairs for j in range(len(model.team))
            ]


def _conjuncts(f):
    """The conjuncts of a conjunction."""
    return list(f.parts) if isinstance(f, And) else [f]


def test_pinned_texts_with_shared_rank_0_formulas():
    """When rows share their rank-0 formula object, the disjunction and the
    forth conjuncts name it once.  With one atom, the rows where it holds
    share it, while each other row has its own negation, which is named
    once per row."""
    ftype = FiniteType((), ("x",))
    model = DependenceModel(
        ftype, Structure(("0", "1", "2"), {}), (("0",), ("1",), ("2",))
    )
    omega = OmegaProfile.of(KIND_EQ, KIND_NEQ)
    assert [print_formula(c) for c in char_formula_all(model, 1, omega)] == [
        "A[] x = x & A[x] x = x & E[] x = x & E[x] x = x"
    ] * 3
    ftype = FiniteType((("P", 1),), ("x",))
    team = (("0",), ("1",), ("2",), ("3",))
    structure = Structure(("0", "1", "2", "3"), {"P": frozenset(team[:2])})
    model = DependenceModel(ftype, structure, team)
    assert canonical_atoms(ftype, omega) == [RelLit(True, "P", ("x",))]
    back = "A[] (P(x) | !P(x) | !P(x))"
    assert [print_formula(c) for c in char_formula_all(model, 1, omega)] == [
        f"{back} & A[x] P(x) & E[] P(x) & E[x] P(x) & E[] !P(x) & E[] !P(x)",
        f"{back} & A[x] P(x) & E[] P(x) & E[x] P(x) & E[] !P(x) & E[] !P(x)",
        f"{back} & A[x] !P(x) & E[] P(x) & E[] !P(x) & E[x] !P(x) & E[] !P(x)",
        f"{back} & A[x] !P(x) & E[] P(x) & E[] !P(x) & E[] !P(x) & E[x] !P(x)",
    ]


def test_rows_of_one_block_share_their_back_conjunct():
    """The back conjunct for X is one object for all rows of an X-block,
    and distinct objects for rows of different X-blocks."""
    model = gen.ex_local_dep()
    vs = model.ftype.variables
    subsets = [X for r in range(len(vs) + 1) for X in combinations(vs, r)]
    for k in (1, 2):
        backs = [_conjuncts(c)[: len(subsets)] for c in char_formula_all(model, k, LFD)]
        for x, X in enumerate(subsets):
            for i, s in enumerate(model.team):
                for j, t in enumerate(model.team):
                    assert isinstance(backs[i][x], Forall)
                    assert (backs[i][x] is backs[j][x]) == model.agree(s, t, X)
