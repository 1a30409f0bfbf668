"""One workload process of the benchmark.

Imports ``idemzeros`` from the checkout's ``src/``, prepares the workload
(the warm-up pass on query-mix), prints ``ready``, then runs it and prints
one JSON result line.  With ``--setup-only`` it exits after ``ready``; the
parent times spawn-to-ready as the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import idemzeros

    if Path(idemzeros.__file__).resolve().parent != SRC / "idemzeros":
        print(f"idemzeros imported from {idemzeros.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.pass_index)
    workload.prepare()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    rec = workloads.Recorder(tracer, bool(args.trace), dict(os.environ))
    result = workload.run(rec)
    result["tail_pct"] = workload.tail_pct
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer)
        result["absent"] = tracer.absent
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"spans-{args.workload}-{args.seed}-{args.pass_index}.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
