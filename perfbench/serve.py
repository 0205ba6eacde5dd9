"""The serve-zipf workload: Zipf traffic against a one-worker fleet.

A ``repro serve --jobs 1`` frontend and one ``repro serve --worker``
that self-registers with it run as subprocesses, each over a fresh
store.  Two threads drive a closed loop (each sends its next request
only after the previous reply) through a fixed, seeded plan:
``/v1/run`` single cells drawn Zipf(1.1) from (benchmark x n_streams),
plus every tenth request a small ``/v1/sweep`` of cells already served.
Only public surfaces are read: the replies,
``/metrics.json``, ``/v1/debug`` and, for the traced run, ``/v1/trace``
of a fleet started with ``--trace``.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.attribution import LAYER_METRIC, attribute, gap_report, runs_scalar
from perfbench.common import (
    PER_LAYER,
    OpLog,
    Outcome,
    latency_metrics,
    median,
    timed,
    vm_hwm_mb,
)
from perfbench.inprocess import Context, counter_delta, program_env, store_hit_ratio

ZIPF_S = 1.1
SERVE_SCALE = 0.25
#: Closed-loop clients; more would measure a 2-core host's scheduler.
CONNECTIONS = 2
#: One request in this many is a small /v1/sweep.  It re-reads up to
#: SWEEP_WIDTH cells of one benchmark that were requested at least
#: SWEEP_SETTLE requests earlier, so it is answered from the result cache:
#: first touches come only from /v1/run.  Sweeps that computed cells would
#: make the 11th-slowest request jump between a 4-cell and a 1-cell first
#: touch from seed to seed.
SWEEP_EVERY = 10
SWEEP_WIDTH = 4
SWEEP_SETTLE = 10
REQUEST_TIMEOUT_S = 60.0

#: Requests per second of ``--seconds``.  A run sends a fixed number of
#: requests -- about ``--seconds`` of traffic on a 2-core host -- rather
#: than sending until a deadline: with a fixed deadline a slightly faster
#: run reaches further into the Zipf tail, turns more first touches into
#: result-cache hits and reports a disproportionately higher rate.
REQUESTS_PER_SECOND = 250

#: A run that takes this many times ``--seconds`` stops sending.
OVERRUN = 4


def planned_requests(ctx: Context) -> int:
    return max(1, round(REQUESTS_PER_SECOND * ctx.seconds))


# -- the fleet ------------------------------------------------------------------


class Fleet:
    """One frontend plus one self-registered worker, as subprocesses."""

    def __init__(self, ctx: Context, traced: bool):
        self.ctx = ctx
        self.traced = traced
        self.root = ctx.fresh_dir("fleet")
        self.procs: List[subprocess.Popen] = []
        self._logs: List = []
        self.host = ""
        self.port = 0

    def _spawn(self, name: str, args: List[str]) -> Tuple[subprocess.Popen, Path]:
        path = self.root / f"{name}.log"
        handle = open(path, "w")
        self._logs.append(handle)
        extra = ["--trace"] if self.traced else []
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1",
             "--trace-store", str(self.root / f"{name}-store"), *extra, *args],
            stdout=handle,
            stderr=subprocess.STDOUT,
            env=program_env(self.ctx),
            cwd=self.root,
        )
        self.procs.append(proc)
        return proc, path

    @staticmethod
    def _await_line(proc: subprocess.Popen, path: Path, needle: str, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in path.read_text().splitlines():
                if needle in line:
                    return line
            if proc.poll() is not None:
                raise RuntimeError(f"{path.name}: server exited (rc={proc.returncode}) before '{needle}'")
            time.sleep(0.01)
        raise RuntimeError(f"{path.name}: no '{needle}' within {timeout_s}s")

    def start(self) -> float:
        """Boot both processes; returns seconds until the worker is alive."""
        from repro.service.client import ServiceClient

        started = time.perf_counter()
        front, front_log = self._spawn("frontend", [])
        address = self._await_line(front, front_log, "listening on").rsplit(" ", 1)[-1]
        self.host, _, port = address.rpartition(":")
        self.port = int(port)
        worker, worker_log = self._spawn(
            "worker", ["--worker", "--register", f"http://{self.host}:{self.port}"]
        )
        self._await_line(worker, worker_log, "registered with")
        with ServiceClient(self.host, self.port, timeout=10.0) as client:
            deadline = time.monotonic() + 30.0
            while True:
                status, body = client.fleet_status()
                if status == 200 and body.get("alive", 0) >= 1:
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError("worker never turned up alive")
                time.sleep(0.01)
        return time.perf_counter() - started

    def client(self, timeout: float = REQUEST_TIMEOUT_S):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=timeout, retries=0)

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(proc.pid) for proc in self.procs)

    def stop(self) -> None:
        """SIGINT everything, wait, kill what lingers; always reaps."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
        for handle in self._logs:
            handle.close()
        self.procs, self._logs = [], []


# -- the request plan --------------------------------------------------------------


@dataclass(frozen=True)
class Planned:
    path: str
    payload: dict
    cells: Tuple[Tuple[str, int], ...]


def request_plan(ctx: Context) -> Iterator[Planned]:
    """The seeded request sequence (endless; threads share it)."""
    sizing = ctx.sizing
    # Rank order interleaves benchmarks, so the hot head spans many traces.
    universe = [(name, n) for n in sizing.serve_n_streams for name in sizing.benchmarks]
    weights = [1.0 / rank**ZIPF_S for rank in range(1, len(universe) + 1)]
    common = {"scale": SERVE_SCALE, "seed": ctx.seed, "timeout_s": REQUEST_TIMEOUT_S}
    rng = random.Random(ctx.seed)
    requested: List[Tuple[str, int]] = []
    while True:
        for name, n in rng.choices(universe, weights=weights, k=1024):
            if len(requested) % SWEEP_EVERY == SWEEP_EVERY - 1 and len(requested) > SWEEP_SETTLE:
                # Re-read cells requested at least SWEEP_SETTLE requests ago,
                # all of one benchmark: a result-cache read of several cells.
                settled = requested[:-SWEEP_SETTLE]
                name = settled[-1][0]
                ns = sorted({m for w, m in reversed(settled) if w == name})[-SWEEP_WIDTH:]
                requested.append(("", 0))
                yield Planned(
                    "/v1/sweep",
                    {"workloads": [name], "n_streams": ns, **common},
                    tuple((name, m) for m in ns),
                )
                continue
            requested.append((name, n))
            yield Planned(
                "/v1/run",
                {"workload": name, "config": {"n_streams": n}, **common},
                ((name, n),),
            )


def warm_traces(ctx: Context, fleet: "Fleet") -> None:
    """Set-up: one sweep that makes the worker build every miss trace.

    Its cells (n_streams just past the request universe) are never
    requested in the window, so first touches there are replays.
    """
    sizing = ctx.sizing
    payload = {
        "workloads": list(sizing.benchmarks),
        "n_streams": [max(sizing.serve_n_streams) + 1],
        "scale": SERVE_SCALE,
        "seed": ctx.seed,
        "timeout_s": REQUEST_TIMEOUT_S,
    }
    with fleet.client() as client:
        status, body = client.request("POST", "/v1/sweep", payload)
    if status != 200 or body.get("errors"):
        raise RuntimeError(f"trace warm-up sweep failed: {status} {body}")


@dataclass
class Replies:
    """Every 200 reply's cells, kept for the output check."""

    cells: Dict[Tuple[str, int], dict] = field(default_factory=dict)
    counts: Dict[Tuple[str, int], int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)


def closed_loop(ctx: Context, fleet: Fleet, replies: Replies) -> OpLog:
    """``CONNECTIONS`` threads, one keep-alive connection each."""
    from repro.service.client import RequestFailed

    plan = islice(request_plan(ctx), planned_requests(ctx))
    plan_lock = threading.Lock()
    result_lock = threading.Lock()
    oplog = OpLog()
    deadline = time.perf_counter() + OVERRUN * ctx.seconds

    def record(planned: Planned, status: int, body, elapsed: float) -> None:
        with result_lock:
            oplog.latencies_s.append(elapsed)
            replies.latencies_s.append(elapsed)
            if status != 200 or not isinstance(body, dict) or not body.get("ok"):
                oplog.fail(f"{planned.path} {planned.cells[0]}: status {status}")
                return
            results = body.get("results") or []
            if body.get("errors") or len(results) != len(planned.cells):
                oplog.fail(f"{planned.path} {planned.cells[0]}: {len(results)} results, errors {body.get('errors')}")
                return
            for cell in results:
                key = (cell["workload"], int(cell["key"][1]))
                seen = replies.cells.setdefault(key, cell)
                replies.counts[key] = replies.counts.get(key, 0) + 1
                if seen["stats"] != cell["stats"] or seen["l1"] != cell["l1"]:
                    oplog.fail(f"{key}: two replies disagree")

    def drive() -> None:
        with fleet.client() as client:
            while time.perf_counter() < deadline:
                with plan_lock:
                    planned = next(plan, None)
                if planned is None:
                    return
                started = time.perf_counter()
                try:
                    status, body = client.request("POST", planned.path, planned.payload)
                except RequestFailed as exc:
                    status, body = -1, str(exc)
                record(planned, status, body, time.perf_counter() - started)

    started = time.perf_counter()
    threads = [threading.Thread(target=drive) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    oplog.wall_s = time.perf_counter() - started
    oplog.passes = 1
    return oplog


def check_replies(ctx: Context, replies: Replies, oplog: OpLog) -> None:
    """Each distinct cell's reply must equal a direct ``run_grid`` of it."""
    from repro.service.api import config_from_payload
    from repro.sim.parallel import SweepTask, TaskError, run_grid
    from repro.sim.runner import MissTraceCache
    from repro.trace.store import stats_to_dict

    keys = sorted(replies.cells)
    tasks = [
        SweepTask(key=key, workload=key[0], config=config_from_payload({"n_streams": key[1]}),
                  scale=SERVE_SCALE, seed=ctx.seed)
        for key in keys
    ]
    direct = run_grid(tasks, jobs=1, cache=MissTraceCache(max_entries=None))
    for key, result in zip(keys, direct):
        reply = replies.cells[key]
        if isinstance(result, TaskError):
            oplog.fail(f"{key}: direct run failed: {result.error}", replies.counts[key])
            continue
        expected = json.loads(json.dumps(stats_to_dict(result.streams)))
        if reply["stats"] != expected or reply["l1"] != json.loads(json.dumps(asdict(result.l1))):
            oplog.fail(f"{key}: reply differs from a direct run_grid", replies.counts[key])


# -- the workload ------------------------------------------------------------------


def serve_zipf(ctx: Context) -> Outcome:
    outcome = Outcome()
    boots: List[float] = []
    fleet: Optional[Fleet] = None
    try:
        for _ in range(ctx.sizing.setup_repeats):
            if fleet is not None:
                fleet.stop()
            fleet = Fleet(ctx, traced=False)
            boots.append(fleet.start() + timed(lambda: warm_traces(ctx, fleet))[0])
        assert fleet is not None
        replies = Replies()
        untraced = closed_loop(ctx, fleet, replies)
        rss = fleet.peak_rss_mb()
    finally:
        if fleet is not None:
            fleet.stop()
    outcome.end_to_end["setup_s"] = median(boots)
    outcome.end_to_end["peak_rss_mb"] = rss
    outcome.end_to_end["ops_per_s"] = untraced.ops_per_s()
    latency, tail = latency_metrics(untraced)
    outcome.end_to_end.update(latency)
    outcome.report.update(tail)
    outcome.report["unique_cells"] = len(replies.cells)

    traced_replies = Replies()
    if ctx.trace:
        traced, per_layer, gaps = traced_run(ctx, traced_replies)
        per_layer["obs.overhead_frac"] = 1.0 - traced.ops_per_s() / untraced.ops_per_s()
        outcome.per_layer = per_layer
        outcome.report["gaps"] = gaps
    for key, cell in traced_replies.cells.items():
        replies.cells.setdefault(key, cell)
        replies.counts[key] = replies.counts.get(key, 0) + traced_replies.counts[key]
    check_replies(ctx, replies, untraced)
    outcome.absorb(untraced)
    if ctx.trace:
        outcome.absorb(traced)
    return outcome


def traced_run(ctx: Context, replies: Replies) -> Tuple[OpLog, Dict[str, float], list]:
    """The same traffic against a fleet started with ``--trace``."""
    from repro.obs.spans import validate_chrome_events

    fleet = Fleet(ctx, traced=True)
    try:
        fleet.start()
        warm_traces(ctx, fleet)
        with fleet.client() as client:
            before = client.metrics()["counters"]
        # Server spans share this process's monotonic clock (microseconds).
        window_start_us = time.perf_counter_ns() // 1000
        oplog = closed_loop(ctx, fleet, replies)
        with fleet.client(timeout=120.0) as client:
            debug = client.debug()
            snapshot = client.metrics()
            status, document = client.request("GET", "/v1/trace")
        if status != 200:
            raise RuntimeError(f"GET /v1/trace returned {status}")
        if debug["fleet"].get("alive") != 1:
            oplog.fail(f"fleet worker not alive after the window: {debug['fleet']}")
    finally:
        fleet.stop()
    events = document["traceEvents"]
    try:
        validate_chrome_events(events)
    except ValueError as exc:
        oplog.fail(f"trace file invalid: {exc}")
    ctx.trace_out.parent.mkdir(parents=True, exist_ok=True)
    ctx.trace_out.write_text(json.dumps(document) + "\n")
    # Only requests of the window count; the warm-up sweep is set-up.
    attr = attribute(
        events, lambda span: span["name"] == "request.admit" and span["ts"] >= window_start_us
    )
    wall = sum(replies.latencies_s)
    counters = counter_delta(snapshot["counters"], before)
    layers = service_layers(attr, wall, counters, snapshot["histograms"], replies)
    return oplog, layers, gap_report(attr, wall)


def service_layers(
    attr, wall: float, counters: Dict[str, int], histograms: dict, replies: Replies
) -> Dict[str, float]:
    """The per-layer catalogue from the traced fleet's ``/metrics.json``.

    ``counters`` are the window's deltas; traces were built in set-up, so
    the L1 layer does no work in the window and reports 0.  Percentiles
    come from the histograms at full precision (``/v1/debug`` rounds them
    to microseconds).
    """
    from repro.service.api import config_from_payload

    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, name in LAYER_METRIC.items():
        metrics[name] = attr.layer_self_s.get(layer, 0.0)
    # Every cell whose first reply says "replayed" was replayed once, over
    # its benchmark's miss trace (demand misses plus write-backs).
    traces = {cell["workload"]: cell["l1"] for cell in replies.cells.values()}
    replayed = [key for key, cell in replies.cells.items() if cell.get("source") == "replayed"]
    replay_s = attr.layer_self_s.get("secondary", 0.0)
    events = sum(traces[name]["misses"] + traces[name]["writebacks"] for name, _ in replayed)
    batch = histograms.get("batch_cells", {})
    requested = counters.get("cells_requested_total", 0)
    admission = histograms.get("admission_wait_ms", {})
    queue = histograms.get("queue_wait_ms", {})
    chunk = histograms.get("fleet_chunk_ms", {})
    metrics.update(
        {
            "secondary.replays": counters.get("engine_cells_replayed_total", 0),
            "secondary.events_per_s": events / replay_s if replay_s else 0.0,
            "secondary.scalar_frac": (
                sum(runs_scalar(config_from_payload({"n_streams": n})) for _, n in replayed) / len(replayed)
                if replayed else 0.0
            ),
            "store.bytes_written": counters.get("engine_store_written_bytes_total", 0),
            "store.bytes_read": counters.get("engine_store_read_bytes_total", 0),
            "store.hit_ratio": store_hit_ratio(counters),
            "service.admission_wait_p50_ms": admission.get("p50", 0.0),
            "service.admission_wait_p99_ms": admission.get("p99", 0.0),
            "service.queue_wait_p50_ms": queue.get("p50", 0.0),
            "service.queue_wait_p99_ms": queue.get("p99", 0.0),
            "service.result_cache_hit_ratio": (
                counters.get("result_cache_hits_total", 0) / requested if requested else 0.0
            ),
            "service.coalesce_hit_ratio": (
                counters.get("coalesce_hits_total", 0) / requested if requested else 0.0
            ),
            "service.batch_cells_mean": batch["sum"] / batch["count"] if batch.get("count") else 0.0,
            "service.cells_executed": counters.get("cells_executed_total", 0),
            "fleet.chunk_p50_ms": chunk.get("p50", 0.0),
            "fleet.chunk_p99_ms": chunk.get("p99", 0.0),
            "fleet.dispatch_cells": counters.get("fleet_dispatch_cells_total", 0),
            "fleet.retries": counters.get("fleet_retry_total", 0),
            "fleet.local_fallback_cells": counters.get("fleet_local_fallback_cells_total", 0),
            "unattributed_frac": 1.0 - attr.attributed_s / wall if wall else 0.0,
        }
    )
    return metrics
