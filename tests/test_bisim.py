import random

import pytest
from hypothesis import given, settings, strategies as st

import gen
from teamlogic import (
    DependenceModel,
    Evaluator,
    FiniteType,
    ModelError,
    OmegaProfile,
    PointedModel,
    Structure,
    atom_agreement,
    bisimilarity,
    canonical_atoms,
    check_is_bisimulation,
    check_global_atom,
    comvar,
    eval_local_atom,
    quantifier_rank,
    refine_step,
)
from teamlogic.bisim import BisimRelation
from teamlogic.syntax import LFD, LFD_EQ, Incl


naive_refine = gen.naive_refine


def test_comvar():
    ftype = FiniteType((), ("x", "y", "z"))
    assert comvar(("1", "1", "0"), ("1", "2", "1"), ftype) == ("x",)
    s = ("0", "1", "2")
    assert comvar(s, s, ftype) == ("x", "y", "z")
    assert comvar(("0", "0", "0"), ("1", "1", "0"), ftype) == ("z",)


def test_canonical_atoms_counts():
    ftype = FiniteType((("P", 1),), ("x", "y"))
    atoms = canonical_atoms(ftype, LFD)
    # 2 relational + D/Y over 4 subsets x 2 targets x 2 kinds
    assert len(atoms) == 2 + 16
    full = canonical_atoms(ftype, OmegaProfile.full())
    # adds =, != (1 each) and 4 tuple kinds x (2x2 + 2x2) pairs
    assert len(full) == 2 + 16 + 2 + 4 * 8


def test_atom_agreement_identity():
    model = gen.ex_local_dep()
    rel = atom_agreement(model, model, OmegaProfile.full())
    for i in range(len(model.team)):
        assert rel.relates(i, i)


def test_atom_agreement_respects_relations():
    ftype = FiniteType((("P", 1),), ("x",))
    left = DependenceModel(
        ftype, Structure(("0",), {"P": frozenset({("0",)})}), (("0",),)
    )
    right = DependenceModel(
        ftype, Structure(("0",), {"P": frozenset()}), (("0",),)
    )
    rel = atom_agreement(left, right, LFD)
    assert not rel.pairs


def test_atom_agreement_requires_same_type():
    a = gen.ex_local_dep()
    b, _, _ = gen.ex_inc()
    with pytest.raises(ModelError):
        atom_agreement(a, b, LFD)


def test_ex_inc_is_full_bisimulation():
    left, right, stated = gen.ex_inc()
    ok, witness = check_is_bisimulation(stated, left, right, LFD_EQ)
    assert ok and witness is None
    Z0 = atom_agreement(left, right, LFD_EQ)
    assert stated <= Z0.pairs
    assert refine_step(Z0, left, right).pairs == Z0.pairs


def test_ex_inc_bisimilar_but_inclusion_differs():
    left, right, _ = gen.ex_inc()
    res = bisimilarity(
        PointedModel(left, ("a", "b")), PointedModel(right, ("1", "2")), LFD_EQ
    )
    assert res.related and res.relation.fixpoint
    assert check_global_atom(Incl(("x",), ("y",)), left) is True
    assert check_global_atom(Incl(("x",), ("y",)), right) is False


def test_notgf2_relation_survives_refinement():
    left, right, stated = gen.notgf2()
    ok, witness = check_is_bisimulation(stated, left, right, LFD)
    assert ok and witness is None
    res = bisimilarity(
        PointedModel(left, left.team[0]),
        PointedModel(right, right.team[0]),
        LFD,
    )
    assert res.related


def test_self_bisimilarity_fixpoint():
    model = gen.ex_local_dep()
    for s in model.team:
        res = bisimilarity(
            PointedModel(model, s), PointedModel(model, s), OmegaProfile.full()
        )
        assert res.related and res.relation.fixpoint


def test_fixpoint_relation_is_equivalence_on_self():
    model = gen.ex_local_dep()
    res = bisimilarity(
        PointedModel(model, model.team[0]),
        PointedModel(model, model.team[0]),
        LFD_EQ,
    )
    pairs = res.relation.pairs
    n = len(model.team)
    for i in range(n):
        assert (i, i) in pairs
    for (i, j) in pairs:
        assert (j, i) in pairs
    for (i, j) in pairs:
        for (k, l) in pairs:
            if j == k:
                assert (i, l) in pairs


def test_failure_witness_replay():
    ftype = FiniteType((("P", 1),), ("x",))
    left = DependenceModel(
        ftype, Structure(("0",), {"P": frozenset({("0",)})}), (("0",),)
    )
    right = DependenceModel(
        ftype, Structure(("0",), {"P": frozenset()}), (("0",),)
    )
    res = bisimilarity(
        PointedModel(left, ("0",)), PointedModel(right, ("0",)), LFD
    )
    assert not res.related
    w = res.witness
    assert w is not None and w.kind == "atom"
    assert eval_local_atom(w.detail, left, left.team[w.pair[0]]) != (
        eval_local_atom(w.detail, right, right.team[w.pair[1]])
    )


def _naive_stages(left, right, omega):
    """The stage relations from atom agreement up to the first repeated
    one, by :func:`gen.naive_refine`."""
    stages = [atom_agreement(left, right, omega).pairs]
    while True:
        nxt = naive_refine(BisimRelation(stages[-1], len(stages) - 1), left, right)
        if nxt == stages[-1]:
            return stages
        stages.append(nxt)


def _random_pair(rng):
    """Independent random models of one type, or two subteams of one
    model, which differ in fewer rows and so fail later than stage 0."""
    base = gen.random_model(rng, max_team=6)
    if rng.random() < 0.5:
        right = gen.random_model_of_type(rng, base.ftype, max_team=6)
        return base, right, gen.random_omega(rng)
    left, right = (
        DependenceModel(
            base.ftype,
            base.structure,
            tuple(rng.sample(base.team, rng.randint(1, len(base.team)))),
        )
        for _ in range(2)
    )
    return left, right, gen.random_omega(rng)


def _assert_replays(w, left, right, Z):
    """The witness holds against the relation Z: its atom disagrees at the
    pair, or its challenger row agrees with the pair's row on exactly the
    stated variables and has no partner in Z that agrees with the pair's
    other row on them."""
    (i, j), lt, rt, ftype = w.pair, left.team, right.team, left.ftype
    if w.kind == "atom":
        assert eval_local_atom(w.detail, left, lt[i]) != (
            eval_local_atom(w.detail, right, rt[j])
        )
        return
    row, X = w.detail
    if w.kind == "forth":
        assert X == comvar(lt[row], lt[i], ftype)
        assert not any(
            (row, b) in Z and right.agree(rt[b], rt[j], X) for b in range(len(rt))
        )
    else:
        assert w.kind == "back" and X == comvar(rt[row], rt[j], ftype)
        assert not any(
            (a, row) in Z and left.agree(lt[a], lt[i], X) for a in range(len(lt))
        )


def test_failure_witnesses_replay():
    rng = random.Random(4242)
    seen = {"atom": 0, "forth": 0, "back": 0}
    for _ in range(60):
        left, right, omega = _random_pair(rng)
        stages = _naive_stages(left, right, omega)
        for i, s in enumerate(left.team):
            for j, sp in enumerate(right.team):
                res = bisimilarity(
                    PointedModel(left, s), PointedModel(right, sp), omega
                )
                if res.related:
                    continue
                w = res.witness
                seen[w.kind] += 1
                assert w.pair == (i, j)
                # the witness is for the stage at which the pair splits
                assert (w.kind == "atom") == (w.stage == 0)
                assert (i, j) not in stages[w.stage]
                prev = stages[w.stage - 1] if w.stage else None
                assert prev is None or (i, j) in prev
                _assert_replays(w, left, right, prev)
    assert seen["forth"] and seen["back"]


def _truth_table(model, atoms):
    """Per team row, the truth vector of the atoms."""
    ev = Evaluator(model)
    cols = [ev.truth_rows(a) for a in atoms]
    return [tuple(col[i] for col in cols) for i in range(len(model.team))]


def _naive_chain(left, right, omega, depth):
    """The relation ``bisimilarity`` should end on: stage 0 from the atom
    truth tables, then :func:`gen.naive_refine` until ``depth`` rounds or
    until a round keeps the relation."""
    atoms = canonical_atoms(left.ftype, omega)
    lt, rt = _truth_table(left, atoms), _truth_table(right, atoms)
    Z = BisimRelation(
        frozenset(
            (i, j)
            for i, lv in enumerate(lt)
            for j, rv in enumerate(rt)
            if lv == rv
        ),
        0,
    )
    while depth is None or Z.stage < depth:
        nxt = naive_refine(Z, left, right)
        if nxt == Z.pairs:
            return BisimRelation(Z.pairs, Z.stage, fixpoint=True)
        Z = BisimRelation(nxt, Z.stage + 1)
    return Z


def _naive_class_count(left, right, omega, k):
    """The number of stage-k bisimilarity classes over the rows of both
    teams, from the naive stage-k relations within and across the teams."""
    ll = _naive_chain(left, left, omega, k).pairs
    rr = _naive_chain(right, right, omega, k).pairs
    lr = _naive_chain(left, right, omega, k).pairs
    nl, nr = len(left.team), len(right.team)
    sets = {
        frozenset({("l", b) for b in range(nl) if (a, b) in ll}
                  | {("r", j) for j in range(nr) if (a, j) in lr})
        for a in range(nl)
    } | {
        frozenset({("l", i) for i in range(nl) if (i, b) in lr}
                  | {("r", j) for j in range(nr) if (b, j) in rr})
        for b in range(nr)
    }
    return len(sets)


def _assert_matches_naive_chain(left, right, omega, i=0, j=0):
    pl, pr = PointedModel(left, left.team[i]), PointedModel(right, right.team[j])
    for depth in (0, 1, 2, None):
        res = bisimilarity(pl, pr, omega, depth)
        assert res.relation == _naive_chain(left, right, omega, depth)
        assert res.related == ((i, j) in res.relation.pairs)
        assert len(res.class_counts) == res.relation.stage + 1
    assert list(res.class_counts) == [
        _naive_class_count(left, right, omega, k)
        for k in range(res.relation.stage + 1)
    ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_bisimilarity_matches_naive_chain(seed):
    rng = random.Random(seed)
    left, right, omega = _random_pair(rng)
    i, j = rng.randrange(len(left.team)), rng.randrange(len(right.team))
    _assert_matches_naive_chain(left, right, omega, i, j)


def test_fixpoint_when_only_classes_within_a_team_split():
    # no right row is 0-bisimilar to a left row, so the relation is stable
    # (and empty) from stage 0 while left rows keep splitting
    ftype = FiniteType((), ("x", "y"))
    left = DependenceModel(
        ftype,
        Structure(("0", "1", "2"), {}),
        (("2", "2"), ("0", "0"), ("2", "0"), ("1", "0"), ("0", "1"), ("2", "1")),
    )
    right = DependenceModel(ftype, Structure(("0",), {}), (("0", "0"),))
    _assert_matches_naive_chain(left, right, LFD_EQ)
    res = bisimilarity(
        PointedModel(left, left.team[0]), PointedModel(right, right.team[0]), LFD_EQ
    )
    assert res.relation.fixpoint and res.relation.stage == 0
    Z = atom_agreement(left, right, LFD_EQ)
    nxt = refine_step(Z, left, right)
    assert nxt.pairs == Z.pairs == frozenset()
    assert len(set(nxt.classes)) > len(set(Z.classes)) == res.class_counts[0]


def test_refine_step_needs_refinement_classes():
    left, right, stated = gen.ex_inc()
    with pytest.raises(ModelError):
        refine_step(BisimRelation(frozenset(stated), 0), left, right)


def test_check_is_bisimulation_empty_and_bad_pairs():
    left, right, _ = gen.ex_inc()
    ok, witness = check_is_bisimulation(set(), left, right, LFD_EQ)
    assert ok and witness is None
    with pytest.raises(ModelError):
        check_is_bisimulation({(0, 7)}, left, right, LFD_EQ)


def test_check_is_bisimulation_atom_witness():
    ftype = FiniteType((("P", 1),), ("x",))
    left = DependenceModel(
        ftype, Structure(("0",), {"P": frozenset({("0",)})}), (("0",),)
    )
    right = DependenceModel(
        ftype, Structure(("0",), {"P": frozenset()}), (("0",),)
    )
    ok, witness = check_is_bisimulation({(0, 0)}, left, right, LFD)
    assert not ok and witness.kind == "atom"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_refine_matches_naive_oracle(seed):
    rng = random.Random(seed)
    left = gen.random_model(rng, max_team=5)
    right = DependenceModel(
        left.ftype, left.structure, tuple(rng.sample(left.team, len(left.team)))
    ) if rng.random() < 0.3 else gen.random_model(rng, max_team=5)
    if left.ftype != right.ftype:
        right = left
    omega = gen.random_omega(rng)
    Z = atom_agreement(left, right, omega)
    for _ in range(3):
        fast = refine_step(Z, left, right)
        assert fast.pairs == naive_refine(Z, left, right)
        if fast.pairs == Z.pairs:
            break
        Z = fast


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_ef_forward_direction(seed):
    """Pairs surviving k refinement rounds agree on rank-k formulas."""
    rng = random.Random(seed)
    left = gen.random_model(rng, max_team=4)
    right = gen.random_model(rng, max_team=4)
    if left.ftype != right.ftype:
        right = left
    omega = gen.random_omega(rng)
    k = rng.randint(0, 2)
    Z = atom_agreement(left, right, omega)
    for _ in range(k):
        Z = refine_step(Z, left, right)
    if not Z.pairs:
        return
    lev, rev = Evaluator(left), Evaluator(right)
    for _ in range(5):
        phi = gen.random_formula(rng, left.ftype, omega, rank=k)
        assert quantifier_rank(phi) <= k
        for (i, j) in Z.pairs:
            assert lev.truth(phi, left.team[i]) == rev.truth(phi, right.team[j])


def test_monotone_decrease_and_stage_counter():
    left, right, _ = gen.notgf2()
    Z = atom_agreement(left, right, LFD)
    assert Z.stage == 0
    nxt = refine_step(Z, left, right)
    assert nxt.stage == 1
    assert nxt.pairs <= Z.pairs


def test_depth_limited_bisimilarity():
    left, right, _ = gen.ex_inc()
    res0 = bisimilarity(
        PointedModel(left, ("a", "b")),
        PointedModel(right, ("1", "2")),
        LFD_EQ,
        depth=0,
    )
    assert res0.related and res0.relation.stage == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_check_is_bisimulation_matches_naive_refine(seed):
    rng = random.Random(seed)
    left, right, omega = _random_pair(rng)
    stages = _naive_stages(left, right, omega)
    fixed = sorted(stages[-1])
    roll = rng.random()
    if roll < 0.3:
        Z = set(fixed)
    elif roll < 0.55 and fixed:
        Z = set(fixed) - {rng.choice(fixed)}
    elif roll < 0.8:
        Z = {p for p in stages[0] if rng.random() < 0.6}
    else:
        Z = {
            (i, j)
            for i in range(len(left.team))
            for j in range(len(right.team))
            if rng.random() < 0.3
        }
    ok, w = check_is_bisimulation(Z, left, right, omega)
    R = BisimRelation(frozenset(Z), 0)
    assert ok == (Z <= stages[0] and naive_refine(R, left, right) == R.pairs)
    if ok:
        assert w is None
        return
    assert w.pair in Z
    _assert_replays(w, left, right, Z)
