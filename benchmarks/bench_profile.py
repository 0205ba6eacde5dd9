"""Perf gate for the analytic Table-4 screen (PR 4).

Runs the streams-vs-L2 minimum-capacity search over a representative
workload slice three ways:

1. **brute**: the pure-simulation binary search
   (:func:`repro.sim.compare.min_matching_l2_size`);
2. **analytic cold**: the stack-distance screen including the one-off
   profiling pass, against an empty persistent store (this run
   populates it);
3. **analytic warm**: the screen again with profiles loaded from the
   now-warm store — what every later invocation pays.

Gates (process exits non-zero on any failure):

* every analytic ``matched_size`` equals the brute-force one;
* the analytic screen simulates at most 25% of the candidate L2
  configuration grid on every workload;
* the warm analytic search is faster than brute force in aggregate.

The timings and per-workload config budgets are written to
``BENCH_PR4.json`` at the repo root for cross-PR tracking.  Run via
``make profile-bench`` (or ``PYTHONPATH=src python
benchmarks/bench_profile.py``).
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
from repro.caches.secondary import PAPER_L2_ASSOCS, PAPER_L2_BLOCKS, PAPER_L2_SIZES
from repro.sim.compare import format_size, min_matching_l2_size
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore

#: (workload, scale) cells: matchable at small/large capacities plus
#: unmatchable streams-win cases, so both screen outcomes are exercised.
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
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR4.json"


def main() -> int:
    failures = []
    rows = []
    brute_total = cold_total = warm_total = 0.0
    with tempfile.TemporaryDirectory(prefix="repro-bench-profiles-") as store_dir:
        store = TraceStore(store_dir)
        cache = MissTraceCache(store=store)
        for name, scale in CELLS:
            cache.get(name, scale=scale)  # L1 simulation out of the timed region

            started = time.perf_counter()
            brute = min_matching_l2_size(name, scale=scale, cache=cache)
            brute_s = time.perf_counter() - started

            started = time.perf_counter()
            cold = min_matching_l2_size_analytic(name, scale=scale, cache=cache)
            cold_s = time.perf_counter() - started

            started = time.perf_counter()
            warm = min_matching_l2_size_analytic(name, scale=scale, cache=cache)
            warm_s = time.perf_counter() - started

            brute_total += brute_s
            cold_total += cold_s
            warm_total += warm_s
            fraction = warm.configs_simulated / GRID_CONFIGS
            agree = brute.matched_size == warm.matched_size == cold.matched_size
            print(
                f"{name:8s} scale={scale:<5g} brute={format_size(brute.matched_size):>7s} "
                f"({brute.configs_simulated:2d} cfg {brute_s:5.2f}s)  "
                f"analytic={format_size(warm.matched_size):>7s} "
                f"({warm.configs_simulated:2d} cfg, cold {cold_s:5.2f}s, warm {warm_s:5.2f}s)"
            )
            if not agree:
                failures.append(
                    f"{name}@{scale:g}: analytic matched "
                    f"{format_size(warm.matched_size)} != brute "
                    f"{format_size(brute.matched_size)}"
                )
            if fraction > MAX_CONFIG_FRACTION:
                failures.append(
                    f"{name}@{scale:g}: analytic simulated {warm.configs_simulated}/"
                    f"{GRID_CONFIGS} configs (> {MAX_CONFIG_FRACTION:.0%})"
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
                    "seconds_analytic_cold": round(cold_s, 4),
                    "seconds_analytic_warm": round(warm_s, 4),
                }
            )
        stored_profiles = store.count("profile")

    speedup = brute_total / warm_total if warm_total else float("inf")
    configs_brute = sum(r["configs_brute"] for r in rows)
    configs_analytic = sum(r["configs_analytic"] for r in rows)
    print(
        f"\ntotal: brute {brute_total:.2f}s ({configs_brute} cfg) vs warm analytic "
        f"{warm_total:.2f}s ({configs_analytic} cfg) -> {speedup:.1f}x"
    )
    if speedup < 1.0:
        failures.append(f"warm analytic slower than brute force ({speedup:.2f}x)")

    payload = {
        "pr": 4,
        "benchmark": "bench_profile: analytic Table-4 screen vs brute-force search",
        "grid_configs": GRID_CONFIGS,
        "max_config_fraction": MAX_CONFIG_FRACTION,
        "cells": rows,
        "seconds": {
            "brute": round(brute_total, 3),
            "analytic_cold": round(cold_total, 3),
            "analytic_warm": round(warm_total, 3),
        },
        "configs": {"brute": configs_brute, "analytic": configs_analytic},
        "warm_speedup_vs_brute": round(speedup, 2),
        "store": {"profiles": stored_profiles},
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
