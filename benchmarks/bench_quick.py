"""Quick perf gate: serial cold-start vs warm-store parallel sweeps.

Runs one reduced replication grid (4 workloads x 10 stream configs) three
ways through the sweep engine —

1. **serial cold**: ``jobs=1``, no store, fresh in-process cache (the
   pre-engine behaviour: every invocation recomputes every L1 trace);
2. **parallel cold**: ``jobs=4`` against an empty persistent store (this
   is the run that populates it);
3. **parallel warm**: ``jobs=4`` against the now-warm store (what every
   later ``make bench`` / figure replication pays).

It asserts the warm parallel pass is bit-identical to the serial pass
and at least 3x faster than the serial cold start, then writes the
numbers to ``BENCH_PR1.json`` at the repo root so later PRs have a
timing trajectory to compare against.

A fourth phase probes the **simulation service** (``repro.service``):
it boots an in-process server over the warm store, fires 100 concurrent
duplicate sweep requests at it over real HTTP, and records throughput
plus the coalescing/caching counters to ``BENCH_PR2.json``.  The gate:
every request answers 200 and the grid executes at most once — the
queue → coalesce → batch path must collapse the other 99 requests.

A fifth phase prices the **telemetry subsystem** (``repro.obs``) on
the same warm store: traced vs untraced sweeps, gated at 5% overhead,
recorded in ``BENCH_PR5.json`` (see ``bench_obs.py``).

A sixth phase gates the **vectorized replay engine**
(``repro.sim.vector``): scalar vs vector ``l1.simulate`` span times and
the warm jobs=1 sweep wall time, bit-identical across engines, recorded
in ``BENCH_PR6.json`` (see ``bench_vector.py``).

Run via ``make bench-quick`` (or ``PYTHONPATH=src python
benchmarks/bench_quick.py``).
"""

from __future__ import annotations

import asyncio
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.config import StreamConfig
from repro.service.client import arequest
from repro.service.server import ServiceConfig, ServiceServer, SimulationService
from repro.sim.parallel import SweepTask, TaskError, run_grid
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore

WORKLOADS = ("embar", "mgrid", "cgm", "buk")
N_STREAMS = tuple(range(1, 11))
JOBS = 4
MIN_SPEEDUP = 3.0
SERVICE_REQUESTS = 100
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR1.json"
SERVICE_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR2.json"


def build_tasks() -> list:
    return [
        SweepTask(key=(name, n), workload=name, config=StreamConfig.jouppi(n_streams=n))
        for name in WORKLOADS
        for n in N_STREAMS
    ]


def timed_grid(label: str, **kwargs) -> tuple:
    tasks = build_tasks()
    started = time.perf_counter()
    results = run_grid(tasks, **kwargs)
    elapsed = time.perf_counter() - started
    errors = [r for r in results if isinstance(r, TaskError)]
    if errors:
        raise SystemExit(f"{label}: {len(errors)} grid cells failed: {errors[0]}")
    print(f"{label:24s} {elapsed:7.2f}s  ({len(tasks) / elapsed:6.1f} cells/s)")
    return elapsed, [r.streams for r in results]


async def service_probe(store_dir: str) -> dict:
    """Fire concurrent duplicate sweeps at a warm-store service instance."""
    n_cells = len(WORKLOADS) * len(N_STREAMS)
    payload = {
        "workloads": list(WORKLOADS),
        "n_streams": list(N_STREAMS),
        "timeout_s": 600,
    }
    server = ServiceServer(
        SimulationService(
            ServiceConfig(
                jobs=1,
                store_root=store_dir,
                max_queue=2 * SERVICE_REQUESTS,
            )
        )
    )
    host, port = await server.start()
    try:
        started = time.perf_counter()
        responses = await asyncio.gather(
            *(
                arequest(host, port, "POST", "/v1/sweep", payload, timeout=600)
                for _ in range(SERVICE_REQUESTS)
            )
        )
        elapsed = time.perf_counter() - started
        _, metrics = await arequest(host, port, "GET", "/metrics.json")
    finally:
        await server.close()

    statuses = sorted({status for status, _ in responses})
    counters = metrics["counters"]
    return {
        "requests": SERVICE_REQUESTS,
        "unique_cells": n_cells,
        "statuses": statuses,
        "seconds": round(elapsed, 3),
        "requests_per_second": round(SERVICE_REQUESTS / elapsed, 1),
        "cells_per_second": round(SERVICE_REQUESTS * n_cells / elapsed, 1),
        "counters": {
            name: counters[name]
            for name in (
                "requests_total",
                "requests_rejected_total",
                "cells_requested_total",
                "cells_executed_total",
                "coalesce_hits_total",
                "result_cache_hits_total",
                "store_fastpath_hits_total",
                "batches_total",
            )
        },
    }


def main() -> int:
    print(f"grid: {len(WORKLOADS)} workloads x {len(N_STREAMS)} configs, jobs={JOBS}")
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store_dir:
        store = TraceStore(store_dir)
        serial_s, serial_stats = timed_grid(
            "serial cold (no store)", jobs=1, cache=MissTraceCache()
        )
        parallel_cold_s, _ = timed_grid("parallel cold (fills store)", jobs=JOBS, store=store)
        parallel_warm_s, warm_stats = timed_grid("parallel warm store", jobs=JOBS, store=store)
        stored_traces, stored_results = store.count("trace"), store.count("result")

        probe = asyncio.run(service_probe(store_dir))
        print(
            f"{'service (100x dup sweep)':24s} {probe['seconds']:7.2f}s  "
            f"({probe['requests_per_second']:6.1f} req/s, "
            f"{probe['counters']['cells_executed_total']} cells executed)"
        )

        import bench_obs

        obs_payload = bench_obs.overhead_probe(build_tasks(), store)

        import bench_vector

        vector_payload = bench_vector.vector_probe(build_tasks(), store)

    identical = serial_stats == warm_stats
    speedup = serial_s / parallel_warm_s
    print(f"\nwarm-vs-cold speedup: {speedup:.1f}x   bit-identical: {identical}")

    payload = {
        "pr": 1,
        "benchmark": "bench_quick: replication sweep via repro.sim.parallel",
        "grid": {
            "workloads": list(WORKLOADS),
            "n_streams": list(N_STREAMS),
            "cells": len(WORKLOADS) * len(N_STREAMS),
            "jobs": JOBS,
        },
        "seconds": {
            "serial_cold": round(serial_s, 3),
            "parallel_cold": round(parallel_cold_s, 3),
            "parallel_warm": round(parallel_warm_s, 3),
        },
        "warm_speedup_vs_serial_cold": round(speedup, 2),
        "bit_identical_stats": identical,
        "store": {"traces": stored_traces, "results": stored_results},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    service_payload = {
        "pr": 2,
        "benchmark": "bench_quick: concurrent duplicate sweeps via repro.service",
        "grid": payload["grid"],
        **probe,
        "environment": payload["environment"],
    }
    SERVICE_OUTPUT.write_text(json.dumps(service_payload, indent=2) + "\n")
    print(f"wrote {SERVICE_OUTPUT}")

    if not identical:
        print("FAIL: warm parallel stats differ from serial stats", file=sys.stderr)
        return 1
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.1f}x < {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    if probe["statuses"] != [200]:
        print(f"FAIL: service statuses {probe['statuses']} != [200]", file=sys.stderr)
        return 1
    executed = probe["counters"]["cells_executed_total"]
    if executed > probe["unique_cells"]:
        print(
            f"FAIL: service executed {executed} cells for a "
            f"{probe['unique_cells']}-cell grid (coalescing broken)",
            file=sys.stderr,
        )
        return 1
    if not obs_payload["pass"]:
        print(
            f"FAIL: telemetry overhead "
            f"{100 * obs_payload['overhead_fraction']:.1f}% > "
            f"{100 * obs_payload['max_overhead_fraction']:.0f}%",
            file=sys.stderr,
        )
        return 1
    if not vector_payload["pass"]:
        print(
            "FAIL: vector engine speedup below gate "
            f"(l1 {vector_payload['l1_simulate_span']['speedup']}x, "
            f"sweep {vector_payload['warm_sweep_jobs1']['speedup']}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
