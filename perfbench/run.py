"""Run one workload of the teamlogic benchmark and print its metrics.

    python3 perfbench/run.py --workload check-team --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
One client sends requests in a closed loop, one after the other, in one
process.  With ``--trace 0`` the last line of the output is a JSON object
with the end-to-end metrics; with ``--trace 1`` every block of requests is
run once untraced and once with a span around every library call, and the
JSON object holds the per-layer metrics.  Outputs are checked against
answers from :mod:`reference` and from the construction of the inputs
after the timed loop; spans of a traced run are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import inputs
import reference as ref
from spans import Tracer, layer_of
from workloads import WORKLOADS, rows_bucket

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: blocks of requests generated per workload, about one 25-second run at
#: the library's present speed; the loop starts over when they are used up
POOL_BLOCKS = {"check-team": 16, "bisim-fix": 90, "charform-ef": 60}
#: the tail percentile is the highest of these with at least ten samples
#: beyond it; p95 holds for every run of at least 200 requests
TAIL_LEVELS = (95, 90, 75, 50)

LAYERS = ("syntax", "model", "fo", "checker", "bisim", "charform", "reduce")

#: per-layer time metrics: metric name -> span names summed (mean per request)
SPAN_TIMES = {
    "checker.truth_s": ("checker.truth_rows",),
    "syntax.parse_s": ("syntax.parse_formula",),
    "syntax.nnf_s": ("syntax.to_nnf",),
    "syntax.print_s": ("syntax.print_formula",),
    "model.load_s": ("model.load_model",),
    "model.materialize_s": ("model.materialize_fo_team",),
    "fo.parse_s": ("fo.parse_fo",),
    "reduce.encode_s": ("reduce.parse_kahr", "reduce.encode"),
    "reduce.witness_s": ("reduce.witness_model",),
    "reduce.extract_s": ("reduce.extract_classical_model",),
    "charform.build_s": ("charform.char_formula_all",),
}
#: per-layer counters, mean per request
COUNTS = ("checker.atom_evals", "checker.quantifier_expansions", "checker.memo_hits",
          "bisim.stage0_s", "bisim.atoms", "bisim.rounds", "bisim.pairs_stage0",
          "bisim.pairs_final", "charform.dag_nodes", "charform.tree_nodes",
          "syntax.printed_mb", "model.rows")
LADDER_ROWS = (100, 200, 400, 800)
BISIM_BUCKETS = ("rows8-31", "rows32-63", "rows64-81")


def _units(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".share", "_share", ".coverage", "_ratio")):
        return "ratio"
    if name == "src.lines":
        return "lines"
    return "count"


def per_layer_names() -> list[str]:
    names = list(SPAN_TIMES) + [c for c in COUNTS if c != "bisim.stage0_s"]
    names += ["bisim.stage0_s", "bisim.refine_s", "checker.memo_hit_ratio"]
    names += [f"{layer}.errors" for layer in LAYERS]
    names += [f"{layer}.share" for layer in LAYERS]
    names += ["trace.coverage", "trace.overhead_share", "trace.request_ms", "src.lines"]
    names += [f"checker.truth_s.n{n}" for n in LADDER_ROWS]
    names += [f"model.load_s.n{n}" for n in LADDER_ROWS]
    names += [f"anchor.truth_ms.n{n}" for n in LADDER_ROWS]
    names += [f"bisim.stage0_s.{b}" for b in BISIM_BUCKETS]
    names += [f"bisim.refine_s.{b}" for b in BISIM_BUCKETS]
    return names


END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "correct_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# ---------------------------------------------------------------------------


def import_library():
    """Import ``teamlogic`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "teamlogic" or m.startswith("teamlogic.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    tl = importlib.import_module("teamlogic")
    if Path(tl.__file__).resolve().parent != SRC / "teamlogic":
        raise ImportError(f"teamlogic imported from {tl.__file__}, not from {SRC}")
    return tl


def setup(workload, seed: int, blocks: int):
    """Import the library and generate the inputs; the set-up users of the
    benchmark pay before the first request."""
    t0 = perf_counter()
    tl = import_library()
    pool = workload.pool(seed, blocks)
    return tl, pool, perf_counter() - t0


class Loop:
    """Closed-loop client: one request at a time, outputs kept for the
    check after the loop."""

    def __init__(self, workload, pool, tl, tr):
        self.workload, self.pool, self.tl, self.tr = workload, pool, tl, tr
        self.outputs: dict[int, object] = {}
        self.executions: dict[int, int] = {}
        self.failures: list[tuple[int | None, str, str]] = []
        self.requests: list[tuple[int, bool, float]] = []  # (pool index, traced, seconds)

    def request(self, idx: int, traced: bool) -> float:
        item, wl, tr = self.pool[idx], self.workload, self.tr
        tr.enabled = traced
        req = len(self.requests)
        if traced:
            tr.request = req
            wl.probe(item, self.tl, tr)
        tr.begin(req)
        t0 = perf_counter()
        error = None
        try:
            raw = wl.run(item, self.tl, tr)
        except Exception as e:  # a failed request is counted, not fatal
            error = e
        dt = perf_counter() - t0
        tr.end()
        if error is None:
            try:
                out = wl.summarize(item, raw)
                if traced:
                    wl.count(item, raw, self.tl, tr)
            except Exception as e:  # a result of unexpected shape
                error = e
        if error is not None:
            self.failures.append((idx, layer_of(error), f"{type(error).__name__}: {error}"))
        elif self.outputs.setdefault(idx, out) != out:
            self.failures.append((idx, "bench", "output differs from an earlier run"))
        tr.enabled = False
        self.executions[idx] = self.executions.get(idx, 0) + 1
        self.requests.append((idx, traced, dt))
        return dt

    def verify(self) -> None:
        for idx in sorted(self.outputs):
            try:
                problems = self.workload.verify(self.pool[idx], self.outputs[idx], self.tl)
            except ref.ParseError as e:  # printed output the grammar rejects
                problems = [("syntax", f"printed output does not parse: {e}")]
            except Exception as e:  # a check that cannot run counts as failed
                problems = [(layer_of(e), f"check raised {type(e).__name__}: {e}")]
            for layer, why in problems:
                self.failures.append((idx, layer, why))

    def failed_requests(self) -> int:
        bad = {idx for idx, _, _ in self.failures if idx is not None}
        extra = sum(1 for idx, _, _ in self.failures if idx is None)
        return sum(self.executions.get(i, 0) for i in bad) + extra


def run_untraced(loop: Loop, seconds: float) -> tuple[list[float], float]:
    n = len(loop.pool)
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while perf_counter() < deadline:
        loop.request(i % n, traced=False)
        i += 1
    return [dt for _, _, dt in loop.requests], perf_counter() - start


def run_traced(loop: Loop, seconds: float) -> float:
    """Every block runs twice, untraced and traced, in alternating order;
    returns the tracing overhead as a share of the untraced time."""
    n, size = len(loop.pool), loop.workload.block
    deadline = perf_counter() + seconds
    plain = traced = 0.0
    b = 0
    while perf_counter() < deadline:
        block = [(b * size + k) % n for k in range(size)]
        for mode in ((False, True) if b % 2 == 0 else (True, False)):
            for idx in block:
                dt = loop.request(idx, traced=mode)
                if mode:
                    traced += dt
                else:
                    plain += dt
        b += 1
    return (traced - plain) / plain


def tail(latencies: list[float]) -> tuple[int, float]:
    ordered = sorted(latencies)
    n = len(ordered)
    for level in TAIL_LEVELS:
        if n * (100 - level) >= 1000:
            break
    rank = max(1, -(-level * n // 100))
    return level, ordered[rank - 1]


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "teamlogic").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def layer_metrics(loop: Loop, overhead: float) -> dict[str, float]:
    tr = loop.tr
    selfs = tr.self_times()
    traced = [(req, idx) for req, (idx, t, _) in enumerate(loop.requests) if t]
    n = max(1, len(traced))
    total = sum(dt for idx, t, dt in loop.requests if t)
    span_sum: dict[str, float] = {}
    count_sum: dict[str, float] = {}
    for req, _ in traced:
        for name, s in selfs.get(req, {}).items():
            span_sum[name] = span_sum.get(name, 0.0) + s
        for name, v in tr.counts.get(req, {}).items():
            count_sum[name] = count_sum.get(name, 0.0) + v

    m: dict[str, float] = {}
    for name, spans in SPAN_TIMES.items():
        m[name] = sum(span_sum.get(s, 0.0) for s in spans) / n
    for name in COUNTS:
        m[name] = count_sum.get(name, 0.0) / n
    m["bisim.refine_s"] = span_sum.get("bisim.bisimilarity", 0.0) / n - m["bisim.stage0_s"]
    work = sum(count_sum.get(f"checker.{c}", 0.0)
               for c in ("memo_hits", "atom_evals", "quantifier_expansions"))
    m["checker.memo_hit_ratio"] = count_sum.get("checker.memo_hits", 0.0) / work if work else 0.0
    errors = {layer: 0 for layer in LAYERS}
    for _, layer, _ in loop.failures:
        if layer in errors:
            errors[layer] += 1
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, s in span_sum.items():
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += s
    for layer in LAYERS:
        m[f"{layer}.share"] = by_layer[layer] / total if total else 0.0
    m["trace.coverage"] = sum(by_layer.values()) / total if total else 0.0
    m["trace.overhead_share"] = overhead
    m["trace.request_ms"] = 1000 * total / n
    m["src.lines"] = src_lines()

    # scaling by input size
    pool = loop.pool
    for rows in LADDER_ROWS:
        reqs = [r for r, idx in traced
                if pool[idx].kind == "check" and pool[idx].facts["rows"] == rows]
        k = max(1, len(reqs))
        m[f"checker.truth_s.n{rows}"] = sum(
            selfs[r].get("checker.truth_rows", 0.0) for r in reqs) / k
        m[f"model.load_s.n{rows}"] = sum(
            selfs[r].get("model.load_model", 0.0) for r in reqs) / k
    for b in BISIM_BUCKETS:
        reqs = [r for r, idx in traced
                if pool[idx].kind == "bisim" and rows_bucket(pool[idx].facts["rows"]) == b]
        k = max(1, len(reqs))
        stage0 = sum(tr.counts[r].get(f"bisim.stage0_s.{b}", 0.0) for r in reqs) / k
        m[f"bisim.stage0_s.{b}"] = stage0
        m[f"bisim.refine_s.{b}"] = sum(
            selfs[r].get("bisim.bisimilarity", 0.0) for r in reqs) / k - stage0
    return m


def anchor_times(loop: Loop) -> dict[str, float]:
    """The re-anchor formula of the roadmap on one model of each ladder
    rung: median of three timings of ``Evaluator.truth_rows``."""
    tl, out = loop.tl, {}
    for rows in LADDER_ROWS:
        item = next(it for it in loop.pool if it.kind == "check" and it.facts["rows"] == rows)
        model = tl.load_model(item.texts["model"])
        phi = tl.to_nnf(tl.parse_formula(inputs.ANCHOR_FORMULA, model.ftype))
        times = []
        for _ in range(3):
            t0 = perf_counter()
            truth = tl.Evaluator(model).truth_rows(phi)
            times.append(perf_counter() - t0)
        out[f"anchor.truth_ms.n{rows}"] = 1000 * statistics.median(times)
        want = ref.Team.of(item.facts["model"]).truth(ref.parse(inputs.ANCHOR_FORMULA))
        if tuple(truth) != want:
            loop.failures.append((None, "checker", f"anchor formula wrong at {rows} rows"))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "teamlogic" / "__init__.py").is_file():
        print(f"error: no teamlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    blocks = POOL_BLOCKS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        tl, pool, dt = setup(workload, args.seed, blocks)
        setups.append(dt)

    print(f"teamlogic benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"inputs: {len(pool)} requests in {blocks} blocks, sha256 {inputs.digest(pool)}")

    tr = Tracer()
    loop = Loop(workload, pool, tl, tr)
    loop.request(0, traced=False)  # warm-up, not counted
    loop.requests.clear()
    loop.executions.clear()
    if args.trace:
        overhead = run_traced(loop, args.seconds)
        anchor = anchor_times(loop) if args.workload == "check-team" else {}
    else:
        latencies, wall = run_untraced(loop, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    loop.verify()
    attempted = len(loop.requests) + sum(1 for idx, _, _ in loop.failures if idx is None)
    failed = loop.failed_requests()
    print(f"answers checked: {workload.sources['construction']} facts from the input "
          f"construction, {workload.sources['reference']} from the reference")
    for idx, layer, why in loop.failures[:20]:
        print(f"FAILED request {idx} [{layer}]: {why}")
    print(f"requests: {attempted} attempted, {failed} failed, "
          f"failed_share {failed / max(1, attempted):.6g}")

    if args.trace:
        values = layer_metrics(loop, overhead)
        values.update(anchor)
        metrics = {name: {"value": values.get(name, 0.0), "unit": _units(name)}
                   for name in per_layer_names()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tr.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        level, tail_s = tail(latencies)
        values = {
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_s,
            "throughput_rps": len(latencies) / wall,
            "correct_share": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"latency_tail_ms is p{level} of {len(latencies)} samples")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
