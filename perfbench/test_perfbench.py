"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that inputs depend only on the seed, that short runs of every
workload answer correctly and name every metric of BENCHMARK.json with its
unit, that a wrong expected answer is counted as a failure, and that the
reference agrees with the library's own oracles (the Tarski evaluator over
the standard translation, and the naive refinement in tests/gen.py) on
small inputs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

POOLS = {"check-team": inputs.check_team_pool, "bisim-fix": inputs.bisim_pool,
         "charform-ef": inputs.charform_pool}


def _python(code: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout


def test_digest_is_independent_of_hash_seed():
    code = ("import inputs\n"
            "for f in (inputs.check_team_pool, inputs.bisim_pool, inputs.charform_pool):\n"
            "    print(inputs.digest(f(11, 2)))\n")
    first = _python(code, "0")
    assert len(first.split()) == 3
    for hash_seed in ("8", "10", "12345"):
        assert _python(code, hash_seed) == first


def test_seeds_give_different_inputs():
    for make in POOLS.values():
        assert inputs.digest(make(1, 1)) != inputs.digest(make(2, 1))


_runs: dict = {}


def _tiny_run(workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in _runs:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
        _runs[key] = json.loads(out.stdout.strip().splitlines()[-1])
    return _runs[key]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_names_every_metric(workload, trace):
    result = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    else:
        assert result["metrics"]["correct_share"]["value"] == 1.0


def test_run_without_sources_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bisim-fix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_corrupted_expected_answer_counts_as_failed():
    wl = workloads.CheckTeam()
    tl, pool, _ = run.setup(wl, seed=5, blocks=1)
    loop = run.Loop(wl, pool, tl, Tracer())
    checks = [i for i, it in enumerate(pool) if it.kind == "check"][:3]
    for idx in checks:
        loop.request(idx, traced=False)
    loop.request(checks[0], traced=False)
    # replace the expected truth vector by a constant one that differs
    victim = checks[0]
    facts = pool[victim].facts
    v = facts["model"].variables[0]
    holds = any(ref.Team.of(facts["model"]).truth(facts["formula"]))
    facts["formula"] = ("!=", v, v) if holds else ("=", v, v)
    loop.verify()
    assert [(idx, layer) for idx, layer, _ in loop.failures] == [(victim, "checker")]
    assert loop.failed_requests() == loop.executions[victim]


def test_reference_atoms_match_the_fo_oracle():
    """Every canonical atom of the full profile on two variables, and
    generated check formulas on three, against eval_fo over the standard
    translation."""
    import teamlogic as tl

    rng = random.Random(2024)
    for trial in range(24):
        n_vars = 2 if trial % 2 else 3
        size = rng.randint(2, 3)
        rows = rng.randint(2, min(8, size ** n_vars))
        spec = inputs.random_model(rng, n_vars, rows, size)
        team = ref.Team.of(spec)
        if n_vars == 3:
            formulas = [inputs.check_formula(rng, team) for _ in range(3)]
        else:
            formulas = ref.canonical_atoms(spec.variables, [("P", 1), ("R", 2)],
                                           inputs.FULL_KINDS)
        model = tl.load_model(spec.dm())
        structure = tl.expand(model)
        for f in formulas:
            text = inputs.render(f)
            psi = tl.standard_translation(tl.parse_formula(text, model.ftype), model.ftype)
            want = tuple(tl.eval_fo(psi, structure, dict(zip(spec.variables, row)))
                         for row in spec.team)
            assert team.truth(f) == want, text


def test_reference_refinement_matches_naive_refine():
    import gen as test_gen
    import teamlogic as tl

    rng = random.Random(99)
    for trial in range(40):
        size = rng.randint(2, 3)
        left = inputs.random_model(rng, 2, rng.randint(1, min(5, size * size)), size)
        right = inputs.random_model(rng, 2, rng.randint(1, 5), 3)
        profile = sorted(inputs.PROFILES)[trial % len(inputs.PROFILES)]
        kinds = inputs.PROFILES[profile]
        lm, rm = tl.load_model(left.dm()), tl.load_model(right.dm())
        Z = tl.atom_agreement(lm, rm, tl.OmegaProfile(frozenset(kinds)))
        rf = ref.Refinement(ref.Team.of(left), ref.Team.of(right),
                            [("P", 1), ("R", 2)], kinds)
        assert rf.relation(0) == Z.pairs
        for k in range(1, 4):
            Z = tl.BisimRelation(test_gen.naive_refine(Z, lm, rm), k)
            assert rf.relation(k) == Z.pairs


def test_check_formulas_have_the_stated_shape():
    kinds = {"=", "!=", "D", "Y", "in", "notin", "Ind", "nInd", "rel"}
    for item in inputs.check_team_pool(4, 2):
        if item.kind == "reduce":
            continue
        f = item.facts["formula"]
        assert inputs.count_nodes(f) == 20 and inputs.rank(f) in (2, 3)
        assert _atom_kinds(f) == kinds
        assert "E[]" in item.texts["formula"] or "A[]" in item.texts["formula"]


def _atom_kinds(f) -> set:
    if f[0] in ("and", "or"):
        return set().union(*map(_atom_kinds, f[1]))
    if f[0] in ("A", "E"):
        return _atom_kinds(f[2])
    return {f[0]}


def test_parser_round_trips_generated_formulas():
    rng = random.Random(5)
    for _ in range(50):
        spec = inputs.random_model(rng, 4, 30, 3)
        team = ref.Team.of(spec)
        f = inputs.check_formula(rng, team)
        assert team.eval(ref.parse(inputs.render(f))) == team.eval(f)
    for bad in ("x = ", "(x = y", "x = y)", "x = y y = x", "& x = y", "A[x]", "D[x y"):
        with pytest.raises(ref.ParseError):
            ref.parse(bad)
