"""Run one workload of the layered benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 8 --trace 0

``--trace 0`` measures with tracing off and ends with the end-to-end
metrics; ``--trace 1`` also runs a traced window and ends with the
per-layer metrics instead, writing a Perfetto trace under
``perfbench/results/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Each run
also appends a provenance row to ``perfbench/results/runs.jsonl``.

The program measured is the ``src/`` tree next to this directory; the
command exits non-zero without a result line when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
WORKLOADS = ("sweep-cold", "sweep-warm", "table4", "serve-zipf")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> bool:
    """Put this checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return False
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not load_program():
        return 2
    from perfbench import common, inprocess, serve

    runners = {
        "sweep-cold": inprocess.sweep_cold,
        "sweep-warm": inprocess.sweep_warm,
        "table4": inprocess.table4,
        "serve-zipf": serve.serve_zipf,
    }
    workdir = RESULTS / f"work-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    ctx = inprocess.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizing=inprocess.full_sizing(),
        workdir=workdir,
        src_dir=SRC,
        trace_out=RESULTS / f"trace-{args.workload}-seed{args.seed}.json",
    )
    started = time.time()
    # The stores a run writes stay under results/: deleting flushed files
    # costs tens of milliseconds each on some disks, which would dominate
    # the run.  The directory is disposable.
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        outcome = runners[args.workload](ctx)
        line = outcome.result_line(bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1

    common.log(f"workload {args.workload} seed {args.seed}: {outcome.attempted} ops, {outcome.failed} failed")
    for name, entry in line["metrics"].items():
        common.log(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    if "tail_percentile" in outcome.report:
        common.log(
            f"  latency_tail_ms is p{outcome.report['tail_percentile']:g} of "
            f"{outcome.report['samples']} samples ({outcome.report['samples_beyond']} beyond it)"
        )
    for gap in outcome.report.get("gaps", [])[:12]:
        common.log(f"  gap: {json.dumps(gap)}")
    for failure in outcome.failures:
        common.log(f"  FAILED: {failure}")
    row = {
        **common.provenance(ROOT, args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "result": line,
        "report": outcome.report,
    }
    common.append_row(RESULTS / "runs.jsonl", row)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
