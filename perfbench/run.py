"""idemzeros benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every library call and CLI call happens in
worker processes (``worker.py``) that import ``idemzeros`` from ``src/``.
Prints a readable table, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("oracle-grid", "fuglede-sweep", "query-mix")
# A run makes a fixed number of passes, each in a fresh worker process:
# --seconds divided by the nominal time of one pass, but at least the
# minimum.  Each call's best time over the passes is what the metrics use; a
# fixed count keeps that best-of steady from run to run.
NOMINAL_PASS_S = {"oracle-grid": 20, "fuglede-sweep": 8, "query-mix": 10}
MIN_PASSES = {"oracle-grid": 2, "fuglede-sweep": 3, "query-mix": 3}
SETUP_PROBES = 3  # fresh processes timed to ready before and again after the workers
WORKER_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "cli_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "zn_core.self_s": "s",
    "zn_core.index_sets": "count",
    "cyclotomic.self_s": "s",
    "cyclotomic.root_sums": "count",
    "fourier.self_s": "s",
    "fourier.zero_sets": "count",
    "ramanujan.self_s": "s",
    "ramanujan.evals": "count",
    "digit_tables.self_s": "s",
    "digit_tables.enumerate_s": "s",
    "digit_tables.solutions": "count",
    "digit_tables.is_solution_s": "s",
    "digit_tables.is_solution_calls": "count",
    "oracle.self_s": "s",
    "oracle.subsets_tested": "count",
    "oracle.solutions": "count",
    "oracle.solutions_per_subset": "ratio",
    "oracle.vanish_masks_s": "s",
    "sampling.self_s": "s",
    "sampling.design_s": "s",
    "sampling.simulate_s": "s",
    "fuglede.self_s": "s",
    "fuglede.masks_scanned": "count",
    "fuglede.classes": "count",
    "fuglede.classes_per_mask": "ratio",
    "fuglede.check_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(args: list[str]) -> tuple[float, dict | None]:
    """Run one worker; return seconds from spawn to its ``ready`` line and
    its JSON result (None for a set-up probe)."""
    cmd = [sys.executable, str(WORKER), *args]
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
    ) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode} after {first!r}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(workload: str, seed: int, passes: int, trace: bool = False) -> tuple[list[float], list[dict]]:
    """Run ``passes`` workers; return their spawn-to-ready times and results."""
    ready, results = [], []
    for index in range(passes):
        r, res = spawn(["--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
                        "--pass-index", str(index)])
        ready.append(r)
        results.append(res)
    return ready, results


def best_of(results: list[dict], field: str, first_only: bool = False) -> list[float]:
    """Each call's best time over all its executions in the run, by key;
    calls that failed every time are left out.  With ``first_only``, the
    warm repeats inside a pass are ignored."""
    best: dict[str, float | None] = {}
    for r in results:
        for key, t, *repeat in r[field]:
            if first_only and repeat and repeat[0]:
                continue
            old = best.get(key)
            best[key] = t if old is None else old if t is None else min(old, t)
    return [t for t in best.values() if t is not None]


def end_to_end(setup: list[float], results: list[dict]) -> dict[str, float]:
    lat = best_of(results, "latencies")
    cli = best_of(results, "cli_s")
    return {
        "setup_s": statistics.median(setup),
        "sweep_s": sum(best_of(results, "latencies", first_only=True)),
        "query_p50_ms": percentile(lat, 50) * 1e3,
        "query_tail_ms": percentile(lat, results[0]["tail_pct"]) * 1e3,
        "queries_per_s": len(lat) / sum(lat),
        "cli_p50_ms": statistics.median(cli) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def import_probe() -> float:
    code = "import time; t = time.perf_counter(); import idemzeros.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(),
        cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip())


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    layers: dict[str, float] = {}
    for r in traced:
        for name, value in r["layers"].items():
            layers[name] = layers.get(name, 0) + value
    absent = sorted({n for r in traced for n in r["absent"]})
    if absent:
        print(f"wrapped names absent from this version: {', '.join(absent)}", file=sys.stderr)

    def mean_latency(results):
        lat = [t for r in results for _, t, repeat in r["latencies"] if not repeat]
        return sum(lat) / len(lat)

    subsets = layers["oracle.subsets_tested"]
    masks = layers["fuglede.masks_scanned"]
    layers["oracle.solutions_per_subset"] = layers["oracle.solutions"] / subsets if subsets else 0.0
    layers["fuglede.classes_per_mask"] = layers["fuglede.classes"] / masks if masks else 0.0
    layers["trace.overhead_pct"] = 100 * (mean_latency(traced) / mean_latency(plain) - 1)
    layers["cli.import_s"] = statistics.median(import_probe() for _ in range(5))
    return {name: layers.get(name, 0) for name in PER_LAYER_UNITS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "idemzeros" / "__init__.py").is_file():
        print(f"no idemzeros package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup_args = ["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    setup = [spawn(setup_args)[0] for _ in range(SETUP_PROBES)]
    if args.trace:
        _, plain = measure(args.workload, args.seed, 1)
        _, traced = measure(args.workload, args.seed, 1, trace=True)
        runs = plain + traced
        metrics, units = per_layer(plain, traced), PER_LAYER_UNITS
    else:
        passes = max(MIN_PASSES[args.workload], int(args.seconds // NOMINAL_PASS_S[args.workload]))
        ready, runs = measure(args.workload, args.seed, passes)
        setup += [spawn(setup_args)[0] for _ in range(SETUP_PROBES)]
        metrics, units = end_to_end(setup + ready, runs), END_TO_END_UNITS

    problems = [p for r in runs for p in r["problems"]]
    if len({r.get("digest") for r in runs}) > 1:
        problems.append("passes of the same seed produced different outputs")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{args.workload} seed={args.seed}: {attempted} operations, {failed} failed, "
          f"{len(runs)} worker process(es)")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems and not any(r["n_problems"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
