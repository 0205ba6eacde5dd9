"""Perf/parity gate for the PR 8 analytic layer.

Two halves, one exit code:

1. **Screened Table-4 search** — re-runs the `bench_profile.py` slice
   with the combined-locality set-associative estimator and its shrunk
   `ESTIMATOR_SLACK` (0.03 -> 0.01).  Gates: every matched size equals
   brute force, per-workload simulated-config fraction stays within
   PR 4's 25% ceiling, and the slice-wide simulated-config count is
   **strictly below** the `BENCH_PR4.json` baseline — the tighter slack
   must buy real pruning, not just match the old screen.
2. **Closed-form stream sweeps** — predicts an ``n_streams`` ladder per
   workload from one stored miss spectrum
   (:func:`repro.sim.compare.analytic_stream_sweep`) and replays the
   best cell of each ladder for real.  Gates: every witness lands
   inside its prediction's declared error bound, and the sweep
   simulates only the witnessed fraction of its cells.

Results land in ``BENCH_PR8.json`` (the PR 4 baseline numbers ride
along for comparison).  Run via ``make analytic-bench`` (or
``PYTHONPATH=src python benchmarks/bench_analytic.py``).
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analytic import min_matching_l2_size_analytic
from repro.analytic.screen import ESTIMATOR_SLACK
from repro.caches.secondary import PAPER_L2_ASSOCS, PAPER_L2_BLOCKS, PAPER_L2_SIZES
from repro.core.config import StreamConfig
from repro.sim.compare import analytic_stream_sweep, format_size, min_matching_l2_size
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore

#: The bench_profile.py slice, unchanged, so the config counts compare.
CELLS = (
    ("random", 1.0),
    ("sweep", 0.25),
    ("buk", 0.5),
    ("mdg", 0.5),
    ("cgm", 0.5),
    ("trfd", 0.5),
)
GRID_CONFIGS = len(PAPER_L2_SIZES) * len(PAPER_L2_ASSOCS) * len(PAPER_L2_BLOCKS)
MAX_CONFIG_FRACTION = 0.25

#: Stream-model slice: a Figure 3-style n_streams ladder per workload.
STREAM_CELLS = (("cgm", 0.25), ("buk", 0.25), ("sweep", 0.25))
STREAM_LADDER = (1, 2, 4, 8, 10)

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "BENCH_PR4.json"
OUTPUT = ROOT / "BENCH_PR8.json"


def baseline_configs() -> int:
    """PR 4's slice-wide simulated-config count (the bar to beat)."""
    try:
        return int(json.loads(BASELINE.read_text())["configs"]["analytic"])
    except (OSError, KeyError, ValueError):
        return 18  # the recorded PR 4 run, if the JSON went missing


def screen_half(cache: MissTraceCache, failures: list) -> dict:
    rows = []
    brute_total = warm_total = 0.0
    for name, scale in CELLS:
        cache.get(name, scale=scale)  # L1 simulation out of the timed region

        started = time.perf_counter()
        brute = min_matching_l2_size(name, scale=scale, cache=cache)
        brute_s = time.perf_counter() - started

        min_matching_l2_size_analytic(name, scale=scale, cache=cache)  # warm store
        started = time.perf_counter()
        warm = min_matching_l2_size_analytic(name, scale=scale, cache=cache)
        warm_s = time.perf_counter() - started

        brute_total += brute_s
        warm_total += warm_s
        fraction = warm.configs_simulated / GRID_CONFIGS
        agree = brute.matched_size == warm.matched_size
        print(
            f"{name:8s} scale={scale:<5g} brute={format_size(brute.matched_size):>7s} "
            f"({brute.configs_simulated:2d} cfg {brute_s:5.2f}s)  "
            f"analytic={format_size(warm.matched_size):>7s} "
            f"({warm.configs_simulated:2d} cfg {warm_s:5.2f}s)"
        )
        if not agree:
            failures.append(
                f"{name}@{scale:g}: analytic matched {format_size(warm.matched_size)}"
                f" != brute {format_size(brute.matched_size)}"
            )
        if fraction > MAX_CONFIG_FRACTION:
            failures.append(
                f"{name}@{scale:g}: simulated {warm.configs_simulated}/{GRID_CONFIGS}"
                f" configs (> {MAX_CONFIG_FRACTION:.0%})"
            )
        rows.append(
            {
                "workload": name,
                "scale": scale,
                "matched": format_size(warm.matched_size),
                "agree": agree,
                "configs_brute": brute.configs_simulated,
                "configs_analytic": warm.configs_simulated,
                "seconds_brute": round(brute_s, 4),
                "seconds_analytic_warm": round(warm_s, 4),
            }
        )

    configs_analytic = sum(r["configs_analytic"] for r in rows)
    configs_brute = sum(r["configs_brute"] for r in rows)
    bar = baseline_configs()
    print(
        f"\nscreen: {configs_analytic} configs simulated vs PR4 baseline {bar}"
        f" (brute {configs_brute}); slack {ESTIMATOR_SLACK}"
    )
    if configs_analytic >= bar:
        failures.append(
            f"screen simulated {configs_analytic} configs; must be strictly below"
            f" the PR4 baseline of {bar}"
        )
    return {
        "estimator_slack": ESTIMATOR_SLACK,
        "cells": rows,
        "configs": {"brute": configs_brute, "analytic": configs_analytic},
        "configs_pr4_baseline": bar,
        "seconds": {"brute": round(brute_total, 3), "analytic_warm": round(warm_total, 3)},
    }


def stream_half(cache: MissTraceCache, failures: list) -> dict:
    rows = []
    predicted = witnessed = 0
    total_s = 0.0
    for name, scale in STREAM_CELLS:
        configs = {n: StreamConfig.filtered(n_streams=n) for n in STREAM_LADDER}
        started = time.perf_counter()
        try:
            cells = analytic_stream_sweep(name, configs, scale=scale, cache=cache)
        except RuntimeError as exc:  # a witness outside its declared bound
            failures.append(f"{name}@{scale:g}: {exc}")
            continue
        sweep_s = time.perf_counter() - started
        total_s += sweep_s
        for n, cell in cells.items():
            predicted += 1
            row = {
                "workload": name,
                "scale": scale,
                "n_streams": n,
                "predicted_hit_rate": round(cell.predicted_hit_rate, 4),
                "bound": round(cell.bound, 4),
            }
            if cell.witnessed:
                witnessed += 1
                row["replayed_hit_rate"] = round(cell.simulated_hit_rate, 4)
                row["within_bound"] = cell.within_bound
                if not cell.within_bound:
                    failures.append(
                        f"{name}@{scale:g} n={n}: replayed "
                        f"{cell.simulated_hit_rate:.4f} outside "
                        f"{cell.predicted_hit_rate:.4f} +/- {cell.bound:.4f}"
                    )
            rows.append(row)
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
    return {
        "ladder": list(STREAM_LADDER),
        "cells": rows,
        "cells_predicted": predicted,
        "cells_simulated": witnessed,
        "simulated_fraction": round(fraction, 4),
        "seconds": round(total_s, 3),
    }


def main() -> int:
    failures: list = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-analytic-") as store_dir:
        store = TraceStore(store_dir)
        cache = MissTraceCache(store=store)
        screen = screen_half(cache, failures)
        streams = stream_half(cache, failures)
        stored = {"profiles": store.count("profile"), "spectra": store.count("spectrum")}

    payload = {
        "pr": 8,
        "benchmark": (
            "bench_analytic: combined-locality Table-4 screen + closed-form"
            " stream sweeps vs brute force"
        ),
        "grid_configs": GRID_CONFIGS,
        "max_config_fraction": MAX_CONFIG_FRACTION,
        "screen": screen,
        "streams": streams,
        "store": stored,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
