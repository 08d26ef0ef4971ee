import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gen
from teamlogic import (
    DependenceModel,
    OmegaProfile,
    PointedModel,
    bisimilarity,
    check,
    char_formula,
    disjoint_union,
    dump_model,
    guarded_translation,
    load_model,
    materialize_fo_team,
    modal_translation,
    parse_fo,
    parse_formula,
    print_fo,
    print_formula,
    parse_kahr,
    reduce_to_equality,
    reduce_to_inclusion,
    standard_translation,
    to_nnf,
    variable_distinguished,
)
from teamlogic.cli import build_parser, main
from teamlogic.syntax import LFD, Dep, conj, disj


@pytest.fixture
def dm_path(tmp_path):
    path = tmp_path / "model.dm"
    path.write_text(dump_model(gen.ex_local_dep()))
    return str(path)


@pytest.fixture
def inc_paths(tmp_path):
    left, right, _ = gen.ex_inc()
    lp, rp = tmp_path / "left.dm", tmp_path / "right.dm"
    lp.write_text(dump_model(left))
    rp.write_text(dump_model(right))
    return str(lp), str(rp)


def test_check_true_false_and_errors(dm_path, capsys):
    assert main(["check", "--model", dm_path, "--formula", "D[y] x",
                 "--at", "1 1 0"]) == 0
    assert "true" in capsys.readouterr().out
    assert main(["check", "--model", dm_path, "--formula", "D[x] y",
                 "--at", "1 1 0"]) == 1
    assert "false" in capsys.readouterr().out
    assert main(["check", "--model", dm_path, "--formula", "D[y] x",
                 "--at", "9 9 9"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["check", "--model", dm_path, "--formula", "D[y", "--at",
                 "1 1 0"]) == 2


def test_check_reports_stats(dm_path, capsys):
    main(["check", "--model", dm_path, "--formula", "A[] E[] D[y] x",
          "--at", "0 0 0"])
    out = capsys.readouterr().out
    assert "stats:" in out and "atoms=" in out
    # the partitions on {}, {y} and {x, y}
    assert "partitions=3" in out


def test_check_fo_team_mode(tmp_path, capsys):
    path = tmp_path / "st.dm"
    path.write_text("universe 0 1\nvars x y\n")
    rc = main(["check", "--model", str(path), "--formula", "D[x] y",
               "--at", "0 0", "--team-fo", "x = y"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "materialized team size: 2" in out
    assert "free variable bound: 2" in out


def test_check_fo_team_bound_warning(tmp_path, capsys):
    path = tmp_path / "st.dm"
    path.write_text("universe 0 1\nvars x y\n")
    rc = main(["check", "--model", str(path), "--formula", "D[x] y",
               "--at", "0 0", "--team-fo", "x = y", "--bound", "1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning" in captured.err


def test_check_fo_team_conflicts_with_team_block(dm_path):
    assert main(["check", "--model", dm_path, "--formula", "D[y] x",
                 "--at", "1 1 0", "--team-fo", "x = y"]) == 2


def test_check_omega_flag_rejects_unknown_kind(dm_path):
    assert main(["check", "--model", dm_path, "--formula", "D[y] x",
                 "--at", "1 1 0", "--omega", "bogus"]) == 2


def test_bisim_matches_library(inc_paths, capsys):
    lp, rp = inc_paths
    rc = main(["bisim", "--left", lp, "--right", rp, "--at-left", "a b",
               "--at-right", "1 2", "--omega", "D,Y,=,!="])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("bisimilar")
    assert "fixpoint" in out
    assert "  0 0" in out and "  1 1" in out


def test_bisim_not_bisimilar_exit_code(tmp_path, capsys):
    a = tmp_path / "a.dm"
    b = tmp_path / "b.dm"
    a.write_text("universe 0\nvars x\nrel P 1\n0\nend\nteam\n0\nend\n")
    b.write_text("universe 0\nvars x\nrel P 1\nend\nteam\n0\nend\n")
    rc = main(["bisim", "--left", str(a), "--right", str(b),
               "--at-left", "0", "--at-right", "0", "--omega", "D,Y",
               "--witness"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not bisimilar" in out
    assert "witness: atom disagreement" in out


def test_charform_output_parses(dm_path, capsys):
    rc = main(["charform", "--model", dm_path, "--at", "0 0 0",
               "--depth", "1", "--omega", "D,Y"])
    out = capsys.readouterr().out
    assert rc == 0
    model = gen.ex_local_dep()
    parsed = parse_formula(out.strip(), model.ftype)
    expected = char_formula(model, ("0", "0", "0"), 1, LFD)
    assert parsed == expected


def test_charform_depth_guard(dm_path):
    assert main(["charform", "--model", dm_path, "--at", "0 0 0",
                 "--depth", "5", "--omega", "D,Y"]) == 2


def test_translate_modes(dm_path, capsys):
    for mode in ("standard", "modal"):
        rc = main(["translate", "--mode", mode, "--model", dm_path,
                   "--formula", "D[y] x"])
        assert rc == 0
        assert "forall" in capsys.readouterr().out
    rc = main(["translate", "--mode", "guarded", "--model", dm_path,
               "--formula", "in(x ; y)"])
    assert rc == 0
    assert "exists" in capsys.readouterr().out
    # equality atom is outside the modal fragment
    assert main(["translate", "--mode", "modal", "--model", dm_path,
                 "--formula", "x = y"]) == 2


def test_reduce_targets(tmp_path, capsys):
    kahr = tmp_path / "s.kahr"
    kahr.write_text("binary E\nmatrix E(x y)\n")
    psi = parse_kahr(kahr.read_text())
    rc = main(["reduce", str(kahr), "--target", "incl"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == print_formula(
        reduce_to_inclusion(psi)
    )
    rc = main(["reduce", str(kahr), "--target", "eq"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == print_formula(
        reduce_to_equality(psi)
    )


def test_reduce_bad_input(tmp_path):
    kahr = tmp_path / "bad.kahr"
    kahr.write_text("binary E\nmatrix x = y\n")
    assert main(["reduce", str(kahr), "--target", "incl"]) == 2


def test_vd_roundtrip(dm_path, capsys):
    rc = main(["vd", "--model", dm_path])
    out = capsys.readouterr().out
    assert rc == 0
    vd = load_model(out)
    expected, _ = variable_distinguished(gen.ex_local_dep())
    assert vd == expected


def test_union_roundtrip(inc_paths, capsys):
    lp, rp = inc_paths
    rc = main(["union", "--left", lp, "--right", rp])
    out = capsys.readouterr().out
    assert rc == 0
    model = load_model(out)
    left, right, _ = gen.ex_inc()
    assert len(model.team) == len(left.team) + len(right.team)


def test_out_flag_writes_file(dm_path, tmp_path, capsys):
    target = tmp_path / "report.txt"
    rc = main(["check", "--model", dm_path, "--formula", "D[y] x",
               "--at", "1 1 0", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert "true" in target.read_text()


def test_missing_file_is_exit_2(tmp_path):
    assert main(["check", "--model", str(tmp_path / "nope.dm"),
                 "--formula", "D[y] x", "--at", "0 0 0"]) == 2


BAD_INPUTS = {
    "rel-arity-word": ["check", "--model", "{bad}", "--formula", "x = x",
                       "--at", "0"],
    "charform-depth-word": ["charform", "--model", "{dm}", "--at", "0 0 0",
                            "--depth", "two", "--omega", "D,Y"],
    "bisim-depth-word": ["bisim", "--left", "{dm}", "--right", "{dm}",
                         "--at-left", "0 0 0", "--at-right", "0 0 0",
                         "--depth", "two", "--omega", "D,Y"],
    "bisim-depth-negative": ["bisim", "--left", "{dm}", "--right", "{dm}",
                             "--at-left", "0 0 0", "--at-right", "0 0 0",
                             "--depth", "-3", "--omega", "D,Y"],
    "out-missing-dir": ["check", "--model", "{dm}", "--formula", "D[y] x",
                        "--at", "1 1 0", "--out", "{missing}"],
    # the parser still recurses on nested parentheses
    "formula-3000-parentheses": ["check", "--model", "{dm}", "--formula",
                                 "(" * 3000 + "D[y] x" + ")" * 3000,
                                 "--at", "1 1 0"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2(argv, dm_path, tmp_path, capsys):
    bad = tmp_path / "bad.dm"
    bad.write_text("universe 0\nvars x\nrel R two\n0\nend\nteam\n0\nend\n")
    paths = {"dm": dm_path, "bad": str(bad),
             "missing": str(tmp_path / "nowhere" / "report.txt")}
    try:
        rc = main([a.format(**paths) for a in argv])
    except SystemExit as e:  # argparse rejects a bad flag value this way
        rc = e.code
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("op", [" & ", " | "], ids=["conjuncts", "disjuncts"])
def test_long_flat_junction_is_checked(op, dm_path, capsys):
    """100,000 atoms joined by one connective parse, convert to NNF and
    check through main() without hitting the recursion limit, and the exit
    code is the library's answer."""
    atoms = [Dep(("y",), "x"), Dep(("x",), "y")] * 50_000
    formula = op.join(map(print_formula, atoms))
    rc = main(["check", "--model", dm_path, "--formula", formula,
               "--at", "1 1 0"])
    assert "error" not in capsys.readouterr().err
    model = gen.ex_local_dep()
    phi = conj(atoms) if op == " & " else disj(atoms)
    assert rc == (0 if check(phi, model, ("1", "1", "0")).value else 1)


def test_unexpected_exception_exits_2(dm_path, monkeypatch, capsys):
    from teamlogic import cli

    def boom(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_vd", boom)
    assert main(["vd", "--model", dm_path]) == 2
    err = capsys.readouterr().err
    assert err == "error: internal: KeyError: 'lost'\n"


FUZZ_DM = """universe 0 1 2
vars x y z
rel P 1
1
end
rel E 2
0 1
1 1
2 0
end
team
0 0 0
1 1 0
1 2 1
2 2 1
end
"""
FUZZ_ROWS = ("0 0 0", "1 1 0", "1 2 1", "2 2 1")
FUZZ_FORMULAS = ("A[] E[] D[y] x", "E[x] (in(x y ; y z) & !E(x y))",
                 "~(Ind[x](y z) | x != z)", "A[y] (P(x) | notin(z ; x))")
FUZZ_STRUCTURE = FUZZ_DM[: FUZZ_DM.index("team\n")]
FUZZ_TEAM_FO = ("E(x y) | x = z", "~P(y) -> exists w. E(w z)",
                "x != y & (P(x) | y = z)")
FUZZ_KAHR = ("binary E\nmonadic P\nmatrix E(x y) | (P(z) & !E(y z))\n",
             "binary R\nmatrix !R(x x) & (R(x y) | R(z y))\n")
FUZZ_TOKENS = ("x", "y", "z", "0", "1", "2", "3", " ", "\n", "(", ")", "[", "]",
               ";", ",", "&", "|", "!", "~", "=", "!=", "D", "Y", "E", "A",
               "in", "notin", "Ind", "nInd", "P", "rel", "vars", "team", "end",
               "-", "fix", "binary", "monadic", "matrix", "#", ".", "->",
               "exists", "forall")
FUZZ_COMMANDS = ("check", "check --team-fo", "bisim", "reduce", "charform",
                 "translate", "vd", "union")


def _mutate(rng, text):
    """``text`` with one to three random deletions, insertions and
    replacements of short spans by grammar tokens."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(0, 3))
        token = rng.choice(FUZZ_TOKENS)
        text = text[:i] + rng.choice(("", token, token + text[i:j])) + text[j:]
    return text


def _omega(spec):
    return OmegaProfile(frozenset(spec.replace(",", " ").split()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_cli_fuzz_exit_contract(tmp_path_factory, seed):
    """On mutated model, formula, FO and Kahr text and flags, every command
    exits 0, 1 or 2 without a traceback.  A query's 0 or 1 agrees with the
    library; the other commands never exit 1 and print what the library
    returns, and a printed characteristic formula parses back to it."""
    rng = random.Random(seed)
    target = rng.choice(
        ("dm", "formula", "fo", "kahr", "at", "omega", "depth", "argv", None)
    )

    def pick(name, choices):
        text = rng.choice(choices)
        return _mutate(rng, text) if name == target else text

    command = rng.choice(FUZZ_COMMANDS)
    path = tmp_path_factory.mktemp("fuzz") / "m.dm"
    text = pick("dm", (FUZZ_STRUCTURE if command == "check --team-fo" else FUZZ_DM,))
    path.write_text(text)
    at = pick("at", FUZZ_ROWS)
    omega = pick("omega", ("D,Y", "=,!=,in,notin", "Ind nInd"))
    formula = pick("formula", FUZZ_FORMULAS)
    if command == "check":
        argv = ["check", "--model", str(path), "--formula", formula, "--at", at]
        if rng.random() < 0.3:
            argv += ["--omega", omega]
    elif command == "check --team-fo":
        argv = ["check", "--model", str(path), "--formula", formula, "--at", at,
                "--team-fo", pick("fo", FUZZ_TEAM_FO)]
    elif command == "bisim":
        depth = pick("depth", ("0", "2", "fix"))
        other = rng.choice(FUZZ_ROWS)
        argv = ["bisim", "--left", str(path), "--right", str(path),
                "--at-left", at, "--at-right", other, "--omega", omega,
                "--depth", depth]
    elif command == "reduce":
        kahr = path.with_suffix(".kahr")
        kahr.write_text(pick("kahr", FUZZ_KAHR))
        argv = ["reduce", str(kahr), "--target", rng.choice(("incl", "eq"))]
    elif command == "charform":
        # chi^3 prints about 50 MB on this model, so the depth is never
        # mutated; 5 meets the depth guard
        argv = ["charform", "--model", str(path), "--at", at, "--depth",
                rng.choice(("0", "1", "5")), "--omega", omega]
    elif command == "translate":
        argv = ["translate", "--mode", rng.choice(("standard", "modal", "guarded")),
                "--model", str(path), "--formula", formula]
    elif command == "vd":
        argv = ["vd", "--model", str(path)]
    else:
        argv = ["union", "--left", str(path), "--right", str(path)]
    if target == "argv":
        i = rng.choice([n for n in range(len(argv)) if argv[n - 1] != "--depth"
                        or command != "charform"])
        argv[i : i + 1] = rng.choice(([], argv[i : i + 1] * 2, [_mutate(rng, argv[i])]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejects a bad flag this way
            rc = e.code
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        return
    args = build_parser().parse_args(argv)
    if args.command == "check":
        if args.team_fo is None:
            model = load_model(text)
        else:
            structure, ftype = load_model(text, require_team=False)
            team = parse_fo(args.team_fo, ftype.variables)
            model = materialize_fo_team(structure, ftype, team).model
        phi = to_nnf(parse_formula(args.formula, model.ftype))
        answer = check(phi, model, tuple(args.at.split())).value
    elif args.command == "bisim":
        model = load_model(text)
        answer = bisimilarity(PointedModel(model, tuple(args.at_left.split())),
                              PointedModel(model, tuple(args.at_right.split())),
                              _omega(args.omega), args.depth).related
    else:
        assert rc == 0
        assert out.getvalue().rstrip("\n") == _library_text(args, text).rstrip("\n")
        return
    assert answer == (rc == 0)


def _library_text(args, text):
    """What a command that answers no query prints, through the library."""
    if args.command == "reduce":
        psi = parse_kahr(Path(args.kahr).read_text())
        encode = reduce_to_inclusion if args.target == "incl" else reduce_to_equality
        return print_formula(encode(psi))
    if args.command == "translate":
        loaded = load_model(text, require_team=False)
        ftype = loaded.ftype if isinstance(loaded, DependenceModel) else loaded[1]
        phi = to_nnf(parse_formula(args.formula, ftype))
        if args.mode == "standard":
            return print_fo(standard_translation(phi, ftype))
        if args.mode == "modal":
            return print_fo(modal_translation(phi))
        return print_fo(guarded_translation(phi, ftype))
    model = load_model(text)
    if args.command == "charform":
        chi = char_formula(model, tuple(args.at.split()), args.depth, _omega(args.omega))
        printed = print_formula(chi)
        assert parse_formula(printed, model.ftype) == chi
        return printed
    if args.command == "vd":
        return dump_model(variable_distinguished(model)[0])
    return dump_model(disjoint_union(model, model))


def test_closed_output_pipe_exits_2(dm_path, monkeypatch):
    """stdout and stderr lead into a pipe whose reader has exited: the
    command exits 2 rather than 1, with or without the interpreter's flush
    at exit, and printing the error raises nothing."""
    argv = ["check", "--model", dm_path, "--formula", "x = y", "--at", "0 0 0"]
    r, w = os.pipe()
    os.close(r)
    with os.fdopen(w, "w") as out, os.fdopen(os.dup(w), "w") as err:
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        assert main(argv) == 2
        monkeypatch.undo()
    r, w = os.pipe()
    os.close(r)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "teamlogic.cli", *argv],
                          stdout=w, stderr=w, env=env, timeout=60)
    os.close(w)
    assert proc.returncode == 2
