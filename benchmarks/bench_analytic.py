"""Parity gate for the closed-form stream sweeps.

Predicts an ``n_streams`` ladder per workload from one stored miss
spectrum (:func:`repro.sim.compare.analytic_stream_sweep`) and replays
the best cell of each ladder for real.  Gates: every witness lands
inside its prediction's declared error bound, and the sweep simulates
only the witnessed fraction of its cells.  Run via ``make
analytic-bench`` (or ``PYTHONPATH=src python benchmarks/bench_analytic.py``).
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro.core.config import StreamConfig
from repro.sim.compare import analytic_stream_sweep
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore

#: Largest fraction of a ladder's cells the sweep may replay.
MAX_CONFIG_FRACTION = 0.25

#: Stream-model slice: a Figure 3-style n_streams ladder per workload.
STREAM_CELLS = (("cgm", 0.25), ("buk", 0.25), ("sweep", 0.25))
STREAM_LADDER = (1, 2, 4, 8, 10)


def stream_sweeps(cache: MissTraceCache, failures: list) -> None:
    predicted = witnessed = 0
    for name, scale in STREAM_CELLS:
        configs = {n: StreamConfig.filtered(n_streams=n) for n in STREAM_LADDER}
        started = time.perf_counter()
        try:
            cells = analytic_stream_sweep(name, configs, scale=scale, cache=cache)
        except RuntimeError as exc:  # a witness outside its declared bound
            failures.append(f"{name}@{scale:g}: {exc}")
            continue
        sweep_s = time.perf_counter() - started
        for n, cell in cells.items():
            predicted += 1
            if cell.witnessed:
                witnessed += 1
                if not cell.within_bound:
                    failures.append(
                        f"{name}@{scale:g} n={n}: replayed "
                        f"{cell.simulated_hit_rate:.4f} outside "
                        f"{cell.predicted_hit_rate:.4f} +/- {cell.bound:.4f}"
                    )
        best = max(cells.values(), key=lambda c: c.predicted_hit_rate)
        print(
            f"{name:8s} scale={scale:<5g} ladder={len(cells)} cells in {sweep_s:5.2f}s"
            f"  best predicted {best.predicted_hit_rate:6.1%} +/- {best.bound:.3f}"
            f"  replayed {best.simulated_hit_rate:6.1%}"
        )
    fraction = witnessed / predicted if predicted else 1.0
    print(
        f"\nstreams: {predicted} cells predicted, {witnessed} replayed as witnesses"
        f" ({fraction:.0%} simulated)"
    )
    if predicted and fraction > MAX_CONFIG_FRACTION:
        failures.append(
            f"stream sweeps replayed {witnessed}/{predicted} cells"
            f" (> {MAX_CONFIG_FRACTION:.0%})"
        )


def main() -> int:
    failures: list = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-analytic-") as store_dir:
        stream_sweeps(MissTraceCache(store=TraceStore(store_dir)), failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
