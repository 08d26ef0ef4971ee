"""Command-line front end.

Exit codes are the machine contract: 0 for success (and "true" for the
query commands), 1 for a false query, 2 for any error.  Reports go to
stdout, diagnostics to stderr.  All commands are thin wrappers over the
library; no semantics lives here.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bisim as bisim_mod
from . import fo
from . import reduce as reduce_mod
from .charform import char_formula
from .checker import check
from .model import (
    DEFAULT_MAX_TEAM,
    DependenceModel,
    ModelError,
    PointedModel,
    disjoint_union,
    dump_model,
    load_model,
    materialize_fo_team,
    variable_distinguished,
)
from .syntax import (
    FormulaError,
    OmegaProfile,
    infer_omega,
    parse_formula,
    print_formula,
    to_nnf,
)


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(str(e)) from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        # a closed stdout raises here, inside main, not at interpreter exit
        sys.stdout.flush()
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as e:
            raise CliError(str(e)) from None


def _parse_omega(spec: str | None) -> OmegaProfile | None:
    if spec is None:
        return None
    return OmegaProfile(frozenset(spec.replace(",", " ").split()))


def _parse_at(spec: str) -> tuple[str, ...]:
    row = tuple(spec.split())
    if not row:
        raise CliError("empty assignment")
    return row


def _load_dm(path: str) -> DependenceModel:
    return load_model(_read(path))


def _depth(spec: str) -> int:
    """A nonnegative stage count, for argparse."""
    if not spec.isdecimal():
        raise argparse.ArgumentTypeError(f"not a nonnegative integer: {spec!r}")
    return int(spec)


def _depth_or_fix(spec: str) -> int | None:
    """A nonnegative stage count, or None for 'fix', for argparse."""
    return None if spec == "fix" else _depth(spec)


def cmd_check(args) -> int:
    lines = []
    if args.team_fo is not None:
        loaded = load_model(_read(args.model), require_team=False)
        if isinstance(loaded, DependenceModel):
            raise CliError("--team-fo given but the model file has a team block")
        structure, ftype = loaded
        team_formula = fo.parse_fo(args.team_fo, ftype.variables)
        mat = materialize_fo_team(structure, ftype, team_formula, args.max_team)
        model = mat.model
        lines.append(f"materialized team size: {len(model.team)}")
        lines.append(f"free variable bound: {mat.free_var_bound}")
        if args.bound is not None and mat.free_var_bound > args.bound:
            _report(
                f"warning: bound {args.bound} exceeded "
                f"(measured {mat.free_var_bound}); proceeding"
            )
    else:
        model = _load_dm(args.model)
    raw = parse_formula(args.formula, model.ftype)
    omega = _parse_omega(args.omega)
    if omega is None:
        omega = infer_omega(raw).closed_under_negation()
    phi = to_nnf(raw, omega)
    at = _parse_at(args.at)
    if at not in model.team:
        raise CliError(f"assignment {at} is not a team row")
    result = check(phi, model, at)
    st = result.stats
    lines.append("true" if result.value else "false")
    lines.append(
        f"stats: atoms={st.atom_evals} quantifiers={st.quantifier_expansions} "
        f"memo_hits={st.memo_hits} partitions={st.partitions}"
    )
    _emit("\n".join(lines), args.out)
    return 0 if result.value else 1


def _format_witness(w: bisim_mod.FailureWitness) -> str:
    if w.kind == "atom":
        return (
            f"witness: atom disagreement on {print_formula(w.detail)} "
            f"at pair {w.pair}"
        )
    t, X = w.detail
    side = "left" if w.kind == "forth" else "right"
    return (
        f"witness: {w.kind} failure at stage {w.stage}, pair {w.pair}: "
        f"{side} row {t} with agreement set {{{' '.join(X)}}} has no partner"
    )


def cmd_bisim(args) -> int:
    left = _load_dm(args.left)
    right = _load_dm(args.right)
    omega = _parse_omega(args.omega)
    if omega is None:
        raise CliError("bisim requires --omega")
    at_left = _parse_at(args.at_left)
    at_right = _parse_at(args.at_right)
    result = bisim_mod.bisimilarity(
        PointedModel(left, at_left),
        PointedModel(right, at_right),
        omega,
        args.depth,
    )
    rel = result.relation
    stage = f"stage {rel.stage}" + (" fixpoint" if rel.fixpoint else "")
    lines = [
        ("bisimilar" if result.related else "not bisimilar") + f" ({stage})"
    ]
    lines.append("relation:")
    lines.extend(f"  {i} {j}" for i, j in sorted(rel.pairs))
    if args.witness and result.witness is not None:
        lines.append(_format_witness(result.witness))
    _emit("\n".join(lines), args.out)
    return 0 if result.related else 1


def cmd_charform(args) -> int:
    model = _load_dm(args.model)
    omega = _parse_omega(args.omega)
    if omega is None:
        raise CliError("charform requires --omega")
    at = _parse_at(args.at)
    k = args.depth
    if k > 4 and not args.force:
        raise CliError("depth above 4 needs --force (formula size explodes)")
    chi = char_formula(model, at, k, omega)
    _emit(print_formula(chi), args.out)
    return 0


def cmd_translate(args) -> int:
    loaded = load_model(_read(args.model), require_team=False)
    if isinstance(loaded, DependenceModel):
        ftype = loaded.ftype
    else:
        _, ftype = loaded
    phi = to_nnf(parse_formula(args.formula, ftype))
    if args.mode == "standard":
        psi = fo.standard_translation(phi, ftype)
    elif args.mode == "modal":
        psi = fo.modal_translation(phi)
    else:
        psi = fo.guarded_translation(phi, ftype)
    _emit(fo.print_fo(psi), args.out)
    return 0


def cmd_reduce(args) -> int:
    sentence = reduce_mod.parse_kahr(_read(args.kahr))
    if args.target == "incl":
        out = reduce_mod.reduce_to_inclusion(sentence)
    else:
        out = reduce_mod.reduce_to_equality(sentence)
    _emit(print_formula(out), args.out)
    return 0


def cmd_vd(args) -> int:
    model = _load_dm(args.model)
    vd, _ = variable_distinguished(model)
    _emit(dump_model(vd), args.out)
    return 0


def cmd_union(args) -> int:
    left = _load_dm(args.left)
    right = _load_dm(args.right)
    _emit(dump_model(disjoint_union(left, right)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="teamlogic", description="local team logic toolkit"
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula at a team assignment")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--at", required=True, help="space-separated value row")
    p.add_argument("--team-fo", help="first-order team definition")
    p.add_argument("--bound", type=int, help="expected free-variable bound")
    p.add_argument("--omega", help="atom kinds allowed when normalizing")
    p.add_argument("--max-team", type=int, default=DEFAULT_MAX_TEAM)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bisim", help="bisimilarity of two pointed models")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--at-left", required=True)
    p.add_argument("--at-right", required=True)
    p.add_argument(
        "--depth", type=_depth_or_fix, default="fix", help="stage count or 'fix'"
    )
    p.add_argument("--omega", required=True, help="comma-separated atom kinds")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bisim)

    p = sub.add_parser("charform", help="characteristic formula of a point")
    p.add_argument("--model", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--depth", type=_depth, required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_charform)

    p = sub.add_parser("translate", help="translate into first-order logic")
    p.add_argument("--mode", choices=("standard", "modal", "guarded"), required=True)
    p.add_argument("--model", required=True, help="supplies the type")
    p.add_argument("--formula", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("reduce", help="encode a Kahr sentence")
    p.add_argument("kahr", help=".kahr input file")
    p.add_argument("--target", choices=("incl", "eq"), required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("vd", help="variable-distinguished transform")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_vd)

    p = sub.add_parser("union", help="disjoint union of two models")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_union)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        FormulaError,
        ModelError,
        fo.TranslationError,
        fo.EvalError,
        reduce_mod.ReduceError,
    ) as e:
        _report(f"error: {e}")
        return 2
    except RecursionError:
        _report("error: formula nested too deeply")
        return 2
    except OSError as e:
        # reading and --out errors are CliErrors, so this is stdout: a pipe
        # whose reader has exited, or a full disk
        _to_devnull(sys.stdout)
        _report(f"error: cannot write output: {e}")
        return 2
    except Exception as e:
        # last resort: the exit-code contract holds for defects too
        _report(f"error: internal: {type(e).__name__}: {e}")
        return 2


def _report(message: str) -> None:
    """Print a diagnostic line on stderr.  Never raises: a stderr that
    cannot be written is pointed at the null device instead."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    """Point a standard stream that cannot be written at the null device,
    so that the flush at interpreter exit does not fail and change the
    exit code."""
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, stream.fileno())
        finally:
            os.close(null)
    except (OSError, ValueError):
        pass  # no file descriptor to redirect: nothing more can be done


if __name__ == "__main__":
    sys.exit(main())
