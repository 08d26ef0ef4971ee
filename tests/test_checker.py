import random

import pytest
from hypothesis import given, settings, strategies as st

import gen
from teamlogic import (
    Anon,
    canonical_atoms,
    Dep,
    DependenceModel,
    Eq,
    Evaluator,
    Excl,
    FiniteType,
    Forall,
    FormulaError,
    Incl,
    Ind,
    ModelError,
    Neq,
    NInd,
    Not,
    OmegaProfile,
    RelLit,
    Structure,
    check,
    check_global_atom,
    eval_fo,
    eval_local_atom,
    expand,
    extension,
    free_vars,
    parse_formula,
    standard_translation,
    to_nnf,
)
from teamlogic.syntax import KIND_D, KIND_IN, KIND_IND, KIND_NOTIN, KIND_Y


def _check_text(text, model, s):
    return check(parse_formula(text, model.ftype), model, s).value


def test_local_dependence_fixture():
    model = gen.ex_local_dep()
    assert _check_text("D[y] x", model, ("1", "1", "0"))
    assert _check_text("D[z] y", model, ("1", "2", "1"))
    assert _check_text("D[z] y", model, ("2", "2", "1"))
    assert not _check_text("D[x] y", model, ("1", "1", "0"))


def test_relational_literal():
    ftype = FiniteType((("P", 1),), ("x",))
    model = DependenceModel(
        ftype,
        Structure(("0", "1"), {"P": frozenset({("0",)})}),
        (("0",), ("1",)),
    )
    assert _check_text("P(x)", model, ("0",))
    assert not _check_text("P(x)", model, ("1",))
    assert _check_text("!P(x)", model, ("1",))


def test_equality_atoms():
    model = gen.ex_local_dep()
    assert _check_text("x = y", model, ("0", "0", "0"))
    assert _check_text("x != y", model, ("1", "2", "1"))
    assert not _check_text("x != x", model, ("0", "0", "0"))


def test_anonymity_is_negated_dependence():
    model = gen.ex_local_dep()
    for s in model.team:
        for text in ("D[] x", "D[x] y", "D[y z] x"):
            beta = parse_formula(text, model.ftype)
            assert eval_local_atom(beta, model, s) != eval_local_atom(
                Anon(beta.over, beta.target), model, s
            )


def test_inclusion_exclusion():
    model = gen.ex_local_dep()
    # (x,y) at (1,1,0) is (1,1); column (y,z) has (0,0),(1,0),(2,1)
    assert not _check_text("in(x y ; y z)", model, ("1", "1", "0"))
    assert _check_text("notin(x y ; y z)", model, ("1", "1", "0"))
    # value 1 of x occurs as a value of z
    assert _check_text("in(x ; z)", model, ("1", "1", "0"))


def test_independence_atom():
    ftype = FiniteType((), ("x", "y"))
    full = DependenceModel(
        ftype,
        Structure(("0", "1"), {}),
        (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")),
    )
    diag = DependenceModel(
        ftype, Structure(("0", "1"), {}), (("0", "0"), ("1", "1"))
    )
    for s in full.team:
        assert eval_local_atom(Ind(("x",), ("y",)), full, s)
    for s in diag.team:
        assert not eval_local_atom(Ind(("x",), ("y",)), diag, s)
        assert eval_local_atom(NInd(("x",), ("y",)), diag, s)


def test_quantifiers():
    model = gen.ex_local_dep()
    # some row with the same y has x = y
    assert _check_text("E[y] x = y", model, ("2", "2", "1"))
    # all rows with the same z as (0,0,0) keep y constant? rows (0,0,0),(1,1,0)
    assert not _check_text("A[z] D[z] y", model, ("0", "0", "0"))
    assert _check_text("A[] (D[y] x | Y[y] x)", model, ("0", "0", "0"))


def test_check_requires_nnf_and_team_row():
    model = gen.ex_local_dep()
    with pytest.raises(FormulaError):
        check(Not(Eq("x", "y")), model, model.team[0])
    with pytest.raises(ModelError):
        check(Eq("x", "y"), model, ("9", "9", "9"))


def test_eval_local_atom_rejects_compound():
    model = gen.ex_local_dep()
    with pytest.raises(FormulaError):
        eval_local_atom(Forall((), Eq("x", "y")), model, model.team[0])


def test_extension():
    model = gen.ex_local_dep()
    beta = parse_formula("D[z] y", model.ftype)
    assert extension(beta, model) == (
        ("1", "2", "1"),
        ("2", "2", "1"),
    )


def test_global_atoms():
    model = gen.ex_local_dep()
    ft = model.ftype
    assert check_global_atom(Dep(("y",), "x"), model) is False
    assert check_global_atom(Dep(("x", "z"), "y"), model) is True
    assert check_global_atom(Anon((), "x"), model) is True
    assert check_global_atom(Incl(("x",), ("y",)), model) is True
    assert check_global_atom(Incl(("x",), ("z",)), model) is False
    assert check_global_atom(Excl(("x",), ("z",)), model) is False
    with pytest.raises(FormulaError):
        check_global_atom(Eq("x", "y"), model)
    left, right, _ = gen.ex_inc()
    assert check_global_atom(Incl(("x",), ("y",)), left) is True
    assert check_global_atom(Incl(("x",), ("y",)), right) is False


def test_global_independence_full_vs_diagonal():
    ftype = FiniteType((), ("x", "y"))
    full = DependenceModel(
        ftype,
        Structure(("0", "1"), {}),
        (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")),
    )
    diag = DependenceModel(
        ftype, Structure(("0", "1"), {}), (("0", "0"), ("1", "1"))
    )
    assert check_global_atom(Ind(("x",), ("y",)), full) is True
    assert check_global_atom(Ind(("x",), ("y",)), diag) is False


def _oracle(beta, model):
    """Per team row, eval_fo of the standard translation of ``beta``."""
    psi = standard_translation(beta, model.ftype)
    structure = expand(model)
    return [
        eval_fo(psi, structure, dict(zip(model.ftype.variables, row)))
        for row in model.team
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_global_atoms_and_extension_match_oracle(seed):
    """check_global_atom is the oracle at every row, and extension is the
    set of rows where the oracle holds, for the five global kinds; the
    oracle is eval_fo over the standard translation."""
    rng = random.Random(seed)
    model = gen.random_model(rng, with_relations=False)
    kind = rng.choice((KIND_D, KIND_Y, KIND_IN, KIND_NOTIN, KIND_IND))
    beta = gen.random_atom(rng, model.ftype, OmegaProfile.of(kind))
    oracle = _oracle(beta, model)
    assert check_global_atom(beta, model) == all(oracle)
    assert extension(beta, model) == tuple(
        row for row, held in zip(model.team, oracle) if held
    )


RELATIONS = (("P", 1), ("E", 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_atom_kernel_matches_oracle(seed):
    """Every canonical atom of the full profile, relational literals
    included, evaluated in shuffled order through one shared Evaluator (so
    partitions and atom bitsets are shared across kinds, and = and != come
    in either order), holds exactly where the oracle does."""
    rng = random.Random(seed)
    variables = ("x", "y", "z")[: rng.randint(1, 3)]
    ftype = FiniteType(RELATIONS, variables)
    model = gen.random_model_of_type(rng, ftype, max_team=6)
    atoms = canonical_atoms(ftype, OmegaProfile.full())
    atoms += [RelLit(False, a.rel, a.args) for a in atoms if isinstance(a, RelLit)]
    rng.shuffle(atoms)
    ev = Evaluator(model)
    for beta in atoms:
        assert ev.truth_rows(beta) == _oracle(beta, model), beta


EDGE_ATOMS = ("E(x x)", "!E(x x)", "x = x", "x != x", "in(x x ; y z)",
              "notin(x x ; y z)", "Ind[x y](y z)", "nInd[x y](y z)",
              "Ind[x y](x y)", "D[] y", "Y[] y")


@pytest.mark.parametrize("text", EDGE_ATOMS)
def test_atom_kernel_edge_atoms(text):
    """Repeated columns, overlapping independence sets, the empty
    dependence set, and one-row teams, against the oracle."""
    ftype = FiniteType(RELATIONS, ("x", "y", "z"))
    beta = parse_formula(text, ftype)
    rng = random.Random(text)
    models = [gen.random_model_of_type(rng, ftype, max_team=8) for _ in range(20)]
    models += [gen.random_model_of_type(rng, ftype, max_team=1) for _ in range(5)]
    assert any(len(m.team) == 1 for m in models)
    for model in models:
        assert Evaluator(model).truth_rows(beta) == _oracle(beta, model)


def test_atom_cache_keeps_stats_comparable():
    """Structurally equal atoms share one bitset, while atom_evals still
    counts every atom node visited and memo_hits only identity hits."""
    model = gen.ex_local_dep()
    ev = Evaluator(model)
    computed = []
    compute = ev._atom
    ev._atom = lambda beta: computed.append(beta) or compute(beta)
    neq, eq, eq_copy = Neq("x", "y"), Eq("x", "y"), Eq("x", "y")
    assert eq is not eq_copy
    m_neq, m_eq = ev.mask(neq), ev.mask(eq)
    assert ev.mask(eq_copy) == m_eq
    assert ev.truth_rows(eq) == [s[0] == s[1] for s in model.team]
    assert m_neq == m_eq ^ ev.full
    assert computed == [neq, eq]
    stats = ev.stats
    assert (stats.atom_evals, stats.memo_hits, stats.partitions) == (3, 1, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_locality(seed):
    """Rows agreeing on the free variables get the same verdict."""
    rng = random.Random(seed)
    model = gen.random_model(rng)
    omega = gen.random_omega(rng)
    phi = gen.random_formula(rng, model.ftype, omega, rank=2)
    ev = Evaluator(model)
    values = ev.truth_rows(phi)
    fv = free_vars(phi)
    for i, s in enumerate(model.team):
        for j, t in enumerate(model.team):
            if model.agree(s, t, fv):
                assert values[i] == values[j]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_nnf_negation_flips_truth(seed):
    rng = random.Random(seed)
    model = gen.random_model(rng)
    phi = gen.random_formula(rng, model.ftype, OmegaProfile.full(), rank=2)
    neg = to_nnf(Not(phi))
    ev = Evaluator(model)
    for s in model.team:
        assert ev.truth(phi, s) != ev.truth(neg, s)


def test_evaluator_memo_reuse():
    model = gen.ex_local_dep()
    phi = parse_formula("A[] E[] D[y] x", model.ftype)
    ev = Evaluator(model)
    ev.truth_rows(phi)
    hits_before = ev.stats.memo_hits
    ev.truth_rows(phi)
    assert ev.stats.memo_hits > hits_before
