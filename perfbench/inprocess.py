"""The in-process workloads: sweep-cold, sweep-warm and table4.

Each drives public entry points of the program -- ``run_grid`` over a
``TraceStore``/``MissTraceCache``, ``min_matching_l2_size`` and
``min_matching_l2_size_analytic`` -- from this process, times every call
from outside, and checks every output.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.attribution import (
    LAYER_METRIC,
    Attribution,
    LayerCounts,
    attribute,
    gap_report,
    instrumented,
)
from perfbench.common import (
    PER_LAYER,
    OpLog,
    Outcome,
    latency_metrics,
    median,
    peak_rss_mb_self,
    timed,
)


@dataclass(frozen=True)
class Sizing:
    """Input sizes of every workload (the smoke tests shrink them)."""

    benchmarks: Tuple[str, ...]
    table4_cells: Tuple[Tuple[str, float], ...]
    serve_n_streams: Tuple[int, ...]
    setup_repeats: int


#: Input scale of every sweep cell: one cold pass of the 15-benchmark grid
#: then takes about 4 s on a 2-core host.
SWEEP_SCALE = 0.25


#: Table 4's (small, large) scales are multiplied by this, so one round
#: of all 20 searches takes seconds rather than half a minute.
TABLE4_SCALE_FACTOR = 0.5


def full_sizing() -> Sizing:
    from repro.workloads import PAPER_BENCHMARKS, TABLE4_SCALES

    return Sizing(
        benchmarks=tuple(PAPER_BENCHMARKS),
        table4_cells=tuple(
            (name, scale * TABLE4_SCALE_FACTOR)
            for name, scales in TABLE4_SCALES.items()
            for scale in scales
        ),
        serve_n_streams=tuple(range(1, 31)),
        setup_repeats=5,
    )


@dataclass
class Context:
    """One invocation: workload inputs, run length and a scratch directory."""

    seed: int
    seconds: float
    trace: bool
    sizing: Sizing
    workdir: Path
    src_dir: Path
    trace_out: Path
    _dirs: Iterator[int] = field(default_factory=count, repr=False)

    def fresh_dir(self, stem: str) -> Path:
        path = self.workdir / f"{stem}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path


# -- shared pieces ------------------------------------------------------------


def boot_s(ctx: Context) -> float:
    """Wall time of a fresh interpreter importing the program's layers."""
    started = time.perf_counter()
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.sim.parallel, repro.sim.compare, repro.analytic.screen",
        ],
        env=program_env(ctx),
        check=True,
        timeout=120,
    )
    return time.perf_counter() - started


def program_env(ctx: Context) -> Dict[str, str]:
    """Environment for child interpreters: this checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.src_dir)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def measure_setup(
    ctx: Context, prepare: Callable[[], object], repeats: Optional[int] = None
) -> Tuple[float, object]:
    """Median set-up time over ``repeats`` boots + preparations.

    Returns the median and the last preparation's product, which the
    timed windows then use.
    """
    times = []
    product = None
    for _ in range(repeats or ctx.sizing.setup_repeats):
        boot = boot_s(ctx)
        prepared, product = timed(prepare)
        times.append(boot + prepared)
    return median(times), product


#: Seconds one pass takes on a 2-core host.  A run makes a fixed number
#: of passes, about ``--seconds`` worth, instead of passing until a
#: deadline: a pass count that depends on speed would move the tail
#: latency (the 11th largest op) between differently expensive cells.
PASS_SECONDS = {"sweep-cold": 4.0, "sweep-warm": 0.025, "table4": 3.0}


def planned_passes(ctx: Context, workload: str) -> int:
    return max(1, round(ctx.seconds / PASS_SECONDS[workload]))


def run_passes(passes: int, one_pass: Callable[[OpLog], None], oplog: OpLog) -> OpLog:
    for _ in range(passes):
        one_pass(oplog)
        oplog.passes += 1
    return oplog


def engine_counters() -> Dict[str, int]:
    from repro.obs.metrics import engine_registry

    return dict(engine_registry().snapshot()["counters"])


def counter_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def store_hit_ratio(delta: Dict[str, int]) -> float:
    hits = sum(v for k, v in delta.items() if k.startswith("engine_store_") and k.endswith("_hit_total"))
    misses = sum(v for k, v in delta.items() if k.startswith("engine_store_") and k.endswith("_miss_total"))
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(
    attr: Attribution,
    counts: LayerCounts,
    delta: Dict[str, int],
    passes: int,
    wall_s: float,
) -> Dict[str, float]:
    """The per-layer catalogue from one traced in-process window."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, name in LAYER_METRIC.items():
        metrics[name] = attr.layer_self_s.get(layer, 0.0) / passes
    l1_s = attr.layer_self_s.get("l1", 0.0)
    replay_s = attr.layer_self_s.get("secondary", 0.0)
    l2_s = attr.layer_self_s.get("l2", 0.0)
    configs = delta.get("engine_l2_configs_simulated_total", 0)
    metrics.update(
        {
            "workloads.accesses": counts.accesses_built / passes,
            "l1.misses": counts.l1_misses / passes,
            "l1.accesses_per_s": counts.l1_accesses / l1_s if l1_s else 0.0,
            "secondary.replays": counts.replays / passes,
            "secondary.events_per_s": counts.replay_events / replay_s if replay_s else 0.0,
            "secondary.scalar_frac": counts.scalar_replays / counts.replays if counts.replays else 0.0,
            "l2.configs_simulated": configs / passes,
            "l2.ms_per_config": 1e3 * l2_s / configs if configs else 0.0,
            "analytic.sizes_pruned": delta.get("engine_analytic_pruned_total", 0) / passes,
            "store.bytes_written": delta.get("engine_store_written_bytes_total", 0) / passes,
            "store.bytes_read": delta.get("engine_store_read_bytes_total", 0) / passes,
            "store.hit_ratio": store_hit_ratio(delta),
            "unattributed_frac": 1.0 - attr.attributed_s / wall_s if wall_s else 0.0,
        }
    )
    return metrics


def traced_window(
    passes: int, one_pass: Callable[[OpLog], None]
) -> Tuple[OpLog, Attribution, LayerCounts, Dict[str, int], List[dict]]:
    """Run the same passes with spans on; the benchmark's ``bench.*``
    spans are the roots whose self time is unattributed."""
    counts = LayerCounts()
    before = engine_counters()
    with instrumented(counts) as tracer:
        oplog = run_passes(passes, one_pass, OpLog())
        events = tracer.drain()
    delta = counter_delta(engine_counters(), before)
    attr = attribute(events, lambda span: span["name"].startswith("bench."))
    return oplog, attr, counts, delta, events


def write_trace(ctx: Context, events: List[dict], oplog: OpLog) -> None:
    """Write the Perfetto file and validate it; a bad file is a failure."""
    from repro.obs.spans import chrome_trace, validate_chrome_events, write_chrome_trace

    try:
        validate_chrome_events(chrome_trace(events)["traceEvents"])
    except ValueError as exc:
        oplog.fail(f"trace file invalid: {exc}")
    write_chrome_trace(ctx.trace_out, events)


def finish(
    ctx: Context,
    outcome: Outcome,
    untraced: OpLog,
    one_pass: Callable[[OpLog], None],
    extra_layer: Dict[str, float],
) -> Outcome:
    """End-to-end metrics from the untraced window; with ``--trace 1`` a
    traced window of the same passes supplies the per-layer catalogue."""
    outcome.absorb(untraced)
    latency, tail = latency_metrics(untraced)
    outcome.end_to_end.update(latency)
    outcome.end_to_end["ops_per_s"] = untraced.ops_per_s()
    outcome.report.update(tail)
    outcome.report["passes"] = untraced.passes
    if ctx.trace:
        traced, attr, counts, delta, events = traced_window(untraced.passes, one_pass)
        write_trace(ctx, events, traced)
        outcome.absorb(traced)
        metrics = layer_metrics(attr, counts, delta, traced.passes, attr.root_dur_s)
        metrics["obs.overhead_frac"] = 1.0 - traced.ops_per_s() / untraced.ops_per_s()
        metrics.update(extra_layer)
        outcome.per_layer = metrics
        outcome.report["traced_passes"] = traced.passes
        outcome.report["gaps"] = gap_report(attr, attr.root_dur_s)
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb_self()
    return outcome


# -- sweep grids --------------------------------------------------------------


def sweep_configs() -> Tuple[Tuple[str, object], ...]:
    """A Figure 3/5/8 column plus two mechanism-zoo cells."""
    from repro.core.config import StreamConfig
    from repro.mechanisms import parse_mechanism_spec
    from repro.reporting.experiments import DEFAULT_CZONE_BITS

    return (
        ("jouppi-1", StreamConfig.jouppi(n_streams=1)),
        ("jouppi-2", StreamConfig.jouppi(n_streams=2)),
        ("jouppi-4", StreamConfig.jouppi(n_streams=4)),
        ("jouppi-10", StreamConfig.jouppi(n_streams=10)),
        ("filtered-10", StreamConfig.filtered(n_streams=10)),
        ("czone-10", StreamConfig.non_unit(n_streams=10, czone_bits=DEFAULT_CZONE_BITS)),
        ("victim:16", parse_mechanism_spec("victim:16")),
        ("misscache:16+streams", parse_mechanism_spec("misscache:16+streams")),
    )


def grid_tasks(ctx: Context) -> list:
    from repro.sim.parallel import SweepTask

    return [
        SweepTask(
            key=(name, label),
            workload=name,
            config=config,
            scale=SWEEP_SCALE,
            seed=ctx.seed,
        )
        for name in ctx.sizing.benchmarks
        for label, config in sweep_configs()
    ]


def run_cells(tasks: list, cache, oplog: Optional[OpLog] = None) -> Tuple[float, list]:
    """One ``run_grid`` call at jobs=1; cell latencies go to ``oplog``."""
    from repro.sim.parallel import run_grid

    wall, results = timed(lambda: run_grid(tasks, jobs=1, cache=cache))
    if oplog is not None:
        oplog.wall_s += wall
        oplog.latencies_s.extend(result.wall_time_s for result in results)
    return wall, results


def check_cells(tasks: list, results: list, reference: Optional[list], oplog: OpLog, what: str) -> None:
    """Each cell must be a result, and equal its reference cell if given."""
    from repro.sim.parallel import TaskError

    for i, (task, result) in enumerate(zip(tasks, results)):
        if isinstance(result, TaskError):
            oplog.fail(f"{what} {task.key}: {result.error}")
        elif reference is not None and (
            result.streams != reference[i].streams or result.l1 != reference[i].l1
        ):
            oplog.fail(f"{what} {task.key}: stats differ from the reference cell")
    if len(results) != len(tasks):
        oplog.fail(f"{what}: {len(results)} results for {len(tasks)} cells", len(tasks))


def fig3_hit_err_pp(tasks: list, results: list) -> float:
    """Mean |hit% at 10 Jouppi streams - the paper's Figure 3 value|."""
    from repro.reporting.paper_data import FIGURE3_HIT_AT_10

    gaps = [
        abs(result.hit_rate_percent - FIGURE3_HIT_AT_10[task.key[0]])
        for task, result in zip(tasks, results)
        if task.key[1] == "jouppi-10" and task.key[0] in FIGURE3_HIT_AT_10
        and hasattr(result, "hit_rate_percent")
    ]
    return sum(gaps) / len(gaps) if gaps else 0.0


def cold_fill(ctx: Context, tasks: list, oplog: Optional[OpLog] = None):
    """One cold grid: empty store, fresh cache.  Returns (store, results)."""
    from repro.sim.runner import MissTraceCache
    from repro.trace.store import TraceStore

    store = TraceStore(ctx.fresh_dir("store"))
    _, results = run_cells(tasks, MissTraceCache(store=store), oplog)
    return store, results


def sweep_cold(ctx: Context) -> Outcome:
    outcome = Outcome()
    tasks = grid_tasks(ctx)
    outcome.end_to_end["setup_s"], _ = measure_setup(ctx, lambda: ctx.fresh_dir("empty"))
    reference: List[list] = []

    def one_pass(oplog: OpLog) -> None:
        with _bench_span("bench.pass"):
            _, results = cold_fill(ctx, tasks, oplog)
        check_cells(tasks, results, reference[0] if reference else None, oplog, "cold")
        if not reference:
            reference.append(results)

    untraced = run_passes(planned_passes(ctx, "sweep-cold"), one_pass, OpLog())
    fig3 = fig3_hit_err_pp(tasks, reference[0])
    outcome.report["fig3_hit_err_pp"] = fig3
    return finish(ctx, outcome, untraced, one_pass, {"model.fig3_hit_err_pp": fig3})


def sweep_warm(ctx: Context) -> Outcome:
    from repro.sim.runner import MissTraceCache

    outcome = Outcome()
    tasks = grid_tasks(ctx)
    # A fill is a whole cold grid: three are enough for a steady median.
    outcome.end_to_end["setup_s"], (store, reference) = measure_setup(
        ctx, lambda: cold_fill(ctx, tasks), repeats=min(3, ctx.sizing.setup_repeats)
    )
    untraced = OpLog()
    check_cells(tasks, reference, None, untraced, "fill")

    def one_pass(oplog: OpLog) -> None:
        with _bench_span("bench.pass"):
            _, results = run_cells(tasks, MissTraceCache(store=store), oplog)
        check_cells(tasks, results, reference, oplog, "warm")

    run_passes(planned_passes(ctx, "sweep-warm"), one_pass, untraced)
    fig3 = fig3_hit_err_pp(tasks, reference)
    outcome.report["fig3_hit_err_pp"] = fig3
    return finish(ctx, outcome, untraced, one_pass, {"model.fig3_hit_err_pp": fig3})


# -- Table 4 -------------------------------------------------------------------


def table4(ctx: Context) -> Outcome:
    from repro.analytic.screen import min_matching_l2_size_analytic
    from repro.sim.compare import min_matching_l2_size
    from repro.sim.runner import MissTraceCache

    outcome = Outcome()
    cells = ctx.sizing.table4_cells

    def build_traces():
        cache = MissTraceCache(max_entries=None)
        for name, scale in cells:
            cache.get(name, scale=scale, seed=ctx.seed)
        return cache

    outcome.end_to_end["setup_s"], cache = measure_setup(ctx, build_traces)
    reference: Dict[Tuple[str, float], tuple] = {}
    analytic_configs = [0]

    def search(oplog: OpLog, fn, name: str, scale: float):
        with _bench_span("bench.search"):
            elapsed, match = timed(lambda: fn(name, scale=scale, seed=ctx.seed, cache=cache))
        oplog.wall_s += elapsed
        oplog.latencies_s.append(elapsed)
        return match

    def one_pass(oplog: OpLog) -> None:
        for name, scale in cells:
            brute = search(oplog, min_matching_l2_size, name, scale)
            screened = search(oplog, min_matching_l2_size_analytic, name, scale)
            analytic_configs[0] += screened.configs_simulated
            if brute.matched_size != screened.matched_size:
                oplog.fail(
                    f"table4 {name}@{scale:g}: brute {brute.matched_size} "
                    f"!= analytic {screened.matched_size}",
                    2,
                )
                continue
            seen = (brute.matched_size, brute.configs_simulated, screened.configs_simulated, screened.sizes_pruned)
            if reference.setdefault((name, scale), seen) != seen:
                oplog.fail(f"table4 {name}@{scale:g}: search not repeatable", 2)

    untraced = run_passes(planned_passes(ctx, "table4"), one_pass, OpLog())
    outcome.report["matches"] = {f"{n}@{s:g}": v[0] for (n, s), v in reference.items()}
    analytic_configs[0] = 0
    outcome = finish(ctx, outcome, untraced, one_pass, {})
    if ctx.trace:
        outcome.per_layer["analytic.configs_simulated"] = (
            analytic_configs[0] / outcome.report["traced_passes"]
        )
    return outcome


def _bench_span(name: str):
    from repro.obs.spans import get_tracer

    return get_tracer().span(name)
