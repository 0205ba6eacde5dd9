"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands::

    repro list                     # available workload models
    repro run WORKLOAD [options]   # one stream-buffer simulation
    repro sweep [options]          # (workload x config) grid, parallel
    repro exhibit NAME [...]       # regenerate a paper table/figure
    repro profile WORKLOAD         # trace statistics of a model
    repro compare WORKLOAD         # streams vs related-work baselines
    repro timing WORKLOAD          # price the stream vs L2 designs
    repro serve [options]          # always-on simulation service (HTTP)
    repro check [options]          # differential check vs golden oracles
    repro obs summarize MANIFEST   # digest a run manifest (slow cells, phases)
    repro top [--url URL]          # live service dashboard (polls /v1/debug)

Every exhibit prints measured values beside the paper's published ones.
``sweep`` and ``exhibit`` accept ``--jobs N`` (process-pool fan-out) and
``--trace-store PATH`` (persistent miss-trace/result store, so repeated
invocations never recompute an L1 simulation — see docs/api.md,
"Scaling sweeps").  ``sweep``, ``exhibit`` and ``compare`` additionally
accept ``--trace-out FILE`` (Perfetto-loadable span trace) and
``--manifest DIR`` (JSON run manifest) — see docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.config import StreamConfig, StrideDetector
from repro.reporting import experiments
from repro.sim.runner import MissTraceCache, run_result
from repro.sim.vector import replay_streams
from repro.trace.stats import profile_trace
from repro.trace.store import TraceStore
from repro.workloads import all_benchmarks, get_workload

__all__ = ["main", "build_parser"]

_EXHIBITS = experiments.EXHIBITS


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stream buffers as a secondary cache replacement (ISCA '94) — reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workload models")

    run = sub.add_parser("run", help="simulate one workload under one stream config")
    run.add_argument("workload", help="workload name (see `repro list`)")
    run.add_argument("--streams", type=int, default=10, help="number of stream buffers")
    run.add_argument("--depth", type=int, default=2, help="stream depth")
    run.add_argument("--scale", type=float, default=1.0, help="input scale factor")
    run.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    run.add_argument(
        "--filter",
        dest="filter_entries",
        type=int,
        default=0,
        metavar="N",
        help="unit-stride filter entries (0 = no filter)",
    )
    run.add_argument(
        "--stride-detector",
        choices=StrideDetector.ALL,
        default=StrideDetector.NONE,
        help="non-unit stride scheme",
    )
    run.add_argument("--czone-bits", type=int, default=19, help="concentration zone bits")

    sweep = sub.add_parser(
        "sweep", help="run a (workload x stream-count) grid through the sweep engine"
    )
    sweep.add_argument(
        "--workloads",
        nargs="+",
        default=["embar", "mgrid", "cgm", "buk"],
        metavar="NAME",
        help="workload models to sweep (default: embar mgrid cgm buk)",
    )
    sweep.add_argument(
        "--n-streams",
        nargs="+",
        type=int,
        default=list(range(1, 11)),
        metavar="N",
        help="stream counts forming the config axis (default: 1..10)",
    )
    sweep.add_argument("--scale", type=float, default=1.0, help="input scale factor")
    sweep.add_argument("--seed", type=int, default=0, help="workload RNG seed")
    sweep.add_argument(
        "--filter",
        dest="filter_entries",
        type=int,
        default=0,
        metavar="N",
        help="unit-stride filter entries for the base config (0 = no filter)",
    )
    sweep.add_argument(
        "--analytic",
        action="store_true",
        help="predict the grid from one miss-spectrum pass per workload "
        "instead of replaying every cell; the best predicted cell is "
        "witnessed by real replay (see docs/analytic.md)",
    )
    sweep.add_argument(
        "--mechanism",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="sweep these secondary mechanisms instead of the stream-count "
        "axis (e.g. streams victim:16 misscache:16 victim:16+streams); "
        "see docs/mechanisms.md",
    )
    _add_engine_flags(sweep)
    _add_obs_flags(sweep)

    exhibit = sub.add_parser("exhibit", help="regenerate a paper table/figure")
    exhibit.add_argument("name", choices=sorted(_EXHIBITS), help="exhibit to run")
    exhibit.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="restrict to these benchmarks (default: the paper's set)",
    )
    _add_engine_flags(exhibit)
    _add_obs_flags(exhibit)

    profile = sub.add_parser("profile", help="show trace statistics of a workload model")
    profile.add_argument("workload")
    profile.add_argument("--scale", type=float, default=1.0)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--locality",
        action="store_true",
        help="also print the miss stream's stack-distance locality profile "
        "(exact FA LRU hit-rate curve; see docs/analytic.md)",
    )
    profile.add_argument(
        "--streams",
        action="store_true",
        help="also print the miss stream's run-length/stride spectrum and "
        "the closed-form stream-model predictions for the paper's "
        "configurations (see docs/analytic.md)",
    )

    compare = sub.add_parser(
        "compare", help="compare streams against the related-work prefetch baselines"
    )
    compare.add_argument("workload")
    compare.add_argument("--scale", type=float, default=1.0)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--mechanism",
        default=None,
        metavar="SPEC",
        help="find the minimum matching L2 for this secondary mechanism "
        "(e.g. streams, victim:16, misscache:16, victim:16+streams) "
        "instead of the baseline table, printing the exact L2 ladder "
        "(see docs/mechanisms.md)",
    )
    compare.add_argument(
        "--trace-store",
        default=None,
        metavar="PATH",
        help="persistent store for miss traces (--mechanism only)",
    )
    _add_obs_flags(compare)

    timing = sub.add_parser(
        "timing", help="price the stream design against a conventional L2 design"
    )
    timing.add_argument("workload")
    timing.add_argument("--scale", type=float, default=1.0)
    timing.add_argument(
        "--l2-kb", type=int, default=512, help="conventional design's L2 capacity (KB)"
    )
    timing.add_argument(
        "--bandwidth",
        type=float,
        default=2.0,
        help="stream design's memory-bandwidth advantage (x)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the asyncio simulation service (see docs/service.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8077, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes in the shared pool (1 = in-process)",
    )
    serve.add_argument(
        "--trace-store",
        default=None,
        metavar="PATH",
        help="persistent miss-trace/result store shared by all workers",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admitted-request bound; excess requests are rejected with 429",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="micro-batcher flush threshold (cells per run_grid call)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="micro-batcher linger before flushing a partial batch",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="default per-request deadline (seconds)",
    )
    serve.add_argument(
        "--worker",
        action="store_true",
        help="run as a fleet worker (executes chunks, never dispatches)",
    )
    serve.add_argument(
        "--workers",
        default=None,
        metavar="URL[,URL...]",
        help="comma-separated worker base URLs to dispatch to",
    )
    serve.add_argument(
        "--register",
        default=None,
        metavar="URL",
        help="frontend base URL to self-register with on start",
    )
    serve.add_argument(
        "--advertise",
        default=None,
        metavar="URL",
        help="base URL this server advertises (default: its bound address)",
    )
    serve.add_argument(
        "--fetch-policy",
        choices=("fallback", "require"),
        default="fallback",
        help="worker behaviour on a trace miss: recompute (fallback) or fail (require)",
    )
    serve.add_argument(
        "--fleet-inflight",
        type=int,
        default=4,
        metavar="N",
        help="chunk requests in flight per worker",
    )
    serve.add_argument(
        "--fleet-timeout",
        type=float,
        default=120.0,
        metavar="S",
        help="per-attempt deadline of one dispatched chunk",
    )
    serve.add_argument(
        "--fleet-attempts",
        type=int,
        default=3,
        metavar="N",
        help="attempts per worker before failing a chunk over",
    )
    serve.add_argument(
        "--fleet-heartbeat",
        type=float,
        default=2.0,
        metavar="S",
        help="worker liveness poll period in seconds (0 disables)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="enable the span tracer at startup; the merged timeline is "
        "served back via GET /v1/trace (workers ship their spans with "
        "every chunk response)",
    )

    check = sub.add_parser(
        "check",
        help="differential check: optimized simulators vs golden oracles",
        description=(
            "Run randomized traces and configurations through both the "
            "optimized simulators and the deliberately-simple reference "
            "models in repro.check.oracle, reporting the first diverging "
            "event per seed (see docs/modeling.md, 'Differential "
            "correctness harness')."
        ),
    )
    check.add_argument(
        "--seeds", type=int, default=50, metavar="N", help="random seeds to check"
    )
    check.add_argument(
        "--seed-start", type=int, default=0, metavar="S", help="first seed (corpus offset)"
    )
    check.add_argument(
        "--events",
        type=int,
        default=2500,
        metavar="N",
        help="events per generated trace",
    )
    check.add_argument(
        "--no-registry",
        action="store_true",
        help="skip the real-workload full-pipeline stages",
    )
    check.add_argument(
        "--registry-scale",
        type=float,
        default=0.05,
        metavar="F",
        help="scale for the registry workload stages",
    )
    check.add_argument(
        "--stages",
        default=None,
        metavar="LIST",
        help="comma-separated per-seed stages to run (default: "
        "l1,streams,victim,misscache,hybrid,analytic,analytic-streams,"
        "vector)",
    )
    check.add_argument(
        "--replay",
        default=None,
        metavar="STAGE:SEED",
        help="re-run one diverging stage, as its divergence prints it "
        "(e.g. hybrid:SEED, or registry:WORKLOAD@SCALE:SEED), and exit",
    )

    obs = sub.add_parser(
        "obs", help="inspect telemetry artifacts (see docs/observability.md)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="digest a run manifest: outcomes, slowest cells, phase times",
    )
    summarize.add_argument(
        "manifest", help="path to a manifest JSON written by --manifest DIR"
    )
    summarize.add_argument(
        "--top", type=int, default=10, metavar="N", help="slowest cells to show"
    )
    summarize.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json mirrors the text digest, for jq)",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running service's /v1/debug",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8077",
        help="service base URL (default: http://127.0.0.1:8077)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="refresh period in seconds",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )

    return parser


def _add_engine_flags(command: argparse.ArgumentParser) -> None:
    """The sweep-engine knobs shared by ``sweep`` and ``exhibit``."""
    command.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep engine (1 = in-process)",
    )
    command.add_argument(
        "--trace-store",
        default=None,
        metavar="PATH",
        help="persistent miss-trace/result store directory (reused across runs)",
    )


def _add_obs_flags(command: argparse.ArgumentParser) -> None:
    """The telemetry knobs shared by ``sweep``, ``exhibit`` and ``compare``."""
    command.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON of this run's spans "
        "(load in Perfetto / chrome://tracing)",
    )
    command.add_argument(
        "--manifest",
        default=None,
        metavar="DIR",
        help="write a JSON run manifest (git SHA, per-cell outcomes, "
        "store IO, phase times) into DIR",
    )


class _ObsSession:
    """Per-invocation telemetry capture behind --trace-out/--manifest.

    Construction enables the process tracer (clearing any stale events)
    and snapshots the engine registry through a
    :class:`~repro.obs.manifest.ManifestBuilder`; :meth:`finish` drains
    the spans, restores the tracer, and writes whichever artifacts were
    requested.  With neither flag set, every method is a no-op and the
    tracer stays disabled (the zero-overhead default).

    An active session also mints one run-level ``trace_id`` and binds it
    for the invocation's duration, so every span the parent process
    records joins one trace; :meth:`tag` stamps the same id onto sweep
    tasks so spawn-pool workers join it too (the trace-out file then
    carries Perfetto flow arrows across all processes).
    """

    def __init__(self, args: argparse.Namespace, command: str):
        self.trace_out = getattr(args, "trace_out", None)
        self.manifest_dir = getattr(args, "manifest", None)
        self.active = bool(self.trace_out or self.manifest_dir)
        self.builder = None
        self.trace_id = None
        self._scope = None
        self._was_enabled = False
        if not self.active:
            return
        from repro.obs import ManifestBuilder, get_tracer, new_trace_id, trace_scope

        tracer = get_tracer()
        self._was_enabled = tracer.enabled
        tracer.enabled = True
        tracer.clear()
        self.trace_id = new_trace_id()
        self._scope = trace_scope(self.trace_id)
        self._scope.__enter__()
        self.builder = ManifestBuilder(command, argv=sys.argv[1:])

    def tag(self, tasks):
        """Stamp the run's trace id onto sweep tasks (no-op when inactive)."""
        if not self.active:
            return tasks
        import dataclasses

        return [dataclasses.replace(task, trace_id=self.trace_id) for task in tasks]

    def add_results(self, tasks, results) -> None:
        if self.builder is not None:
            self.builder.add_results(tasks, results)

    def set_meta(self, **entries) -> None:
        if self.builder is not None:
            self.builder.set_meta(**entries)

    def finish(self) -> None:
        if not self.active:
            return
        from repro.obs import get_tracer, write_chrome_trace

        tracer = get_tracer()
        events = tracer.drain()
        tracer.enabled = self._was_enabled
        if self._scope is not None:
            self._scope.__exit__(None, None, None)
            self._scope = None
        if self.trace_out:
            write_chrome_trace(self.trace_out, events)
            print(f"trace written   : {self.trace_out} ({len(events)} events)")
        if self.manifest_dir:
            path = self.builder.write(self.manifest_dir, span_events=events)
            print(f"manifest written: {path}")


def _cmd_list() -> int:
    print(f"{'name':12s} {'suite':8s} description")
    print("-" * 60)
    for info in all_benchmarks():
        print(f"{info.name:12s} {info.suite:8s} {info.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    entries = args.filter_entries
    if args.stride_detector != StrideDetector.NONE and entries == 0:
        entries = 16  # the detector requires the unit filter in front
    config = StreamConfig(
        n_streams=args.streams,
        depth=args.depth,
        unit_filter_entries=entries,
        stride_detector=args.stride_detector,
        czone_bits=args.czone_bits,
    )
    result = run_result(args.workload, config, scale=args.scale, seed=args.seed)
    bw = result.streams.bandwidth
    print(f"workload        : {result.workload} (scale {result.scale:g})")
    print(f"trace length    : {result.l1.trace_length}")
    print(f"L1 miss rate    : {100 * result.l1.miss_rate:.2f}%  ({result.l1.misses} misses)")
    print(f"stream hit rate : {result.hit_rate_percent:.1f}%")
    print(f"extra bandwidth : {bw.eb_measured:.1f}% measured ({bw.eb_estimate:.1f}% by S*D/M)")
    print(f"prefetches      : {bw.prefetches_issued} issued, {bw.prefetches_used} used")
    row = result.streams.lengths.as_row()
    print("stream lengths  : " + "  ".join(f"{label}:{pct:.0f}%" for label, pct in
          zip(("1-5", "6-10", "11-15", "16-20", ">20"), row)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.reporting.tables import render_table
    from repro.sim.parallel import SweepTask, TaskError, run_grid
    from repro.sim.results import RunResult

    store = TraceStore(args.trace_store) if args.trace_store else None
    if args.mechanism:
        if args.analytic:
            print("--mechanism and --analytic are mutually exclusive", file=sys.stderr)
            return 2
        return _cmd_sweep_mechanisms(args, store)
    base = (
        StreamConfig.filtered(entries=args.filter_entries)
        if args.filter_entries
        else StreamConfig.jouppi()
    )
    values = sorted(set(args.n_streams))
    if args.analytic:
        return _cmd_sweep_analytic(args, base, values, store)
    tasks = [
        SweepTask(
            key=(name, n),
            workload=name,
            config=base.with_(n_streams=n),
            scale=args.scale,
            seed=args.seed,
        )
        for name in args.workloads
        for n in values
    ]
    obs = _ObsSession(args, "sweep")
    tasks = obs.tag(tasks)
    started = time.perf_counter()
    results = run_grid(tasks, jobs=args.jobs, store=store)
    elapsed = time.perf_counter() - started
    obs.add_results(tasks, results)

    by_key = {task.key: result for task, result in zip(tasks, results)}
    errors = [r for r in results if isinstance(r, TaskError)]
    rows = []
    for name in args.workloads:
        row: List = [name]
        for n in values:
            cell = by_key[(name, n)]
            row.append(cell.hit_rate_percent if isinstance(cell, RunResult) else None)
        rows.append(row)
    print(
        render_table(
            ["bench"] + [f"hit% @{n}" for n in values],
            rows,
            title=(
                f"Sweep: {len(args.workloads)} workloads x {len(values)} configs "
                f"(scale {args.scale:g}, jobs {args.jobs})"
            ),
        )
    )
    print(
        f"\n{len(tasks)} cells in {elapsed:.2f}s "
        f"({len(tasks) / elapsed:.1f} cells/s)"
        + (f"; store: {args.trace_store}" if store else "")
    )
    obs.finish()
    for error in errors:
        print(f"FAILED {error.key!r}: {error.error}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_sweep_mechanisms(args, store) -> int:
    """The ``repro sweep --mechanism`` path: a (workload x mechanism)
    grid through the same parallel engine and persistent store."""
    from repro.mechanisms import mechanism_label, parse_mechanism_spec
    from repro.reporting.tables import render_table
    from repro.sim.parallel import SweepTask, TaskError, run_grid
    from repro.sim.results import RunResult

    try:
        mechs = [parse_mechanism_spec(spec) for spec in args.mechanism]
    except ValueError as exc:
        print(f"bad --mechanism: {exc}", file=sys.stderr)
        return 2
    labels = [mechanism_label(mech) for mech in mechs]
    tasks = [
        SweepTask(
            key=(name, label),
            workload=name,
            config=mech,
            scale=args.scale,
            seed=args.seed,
        )
        for name in args.workloads
        for label, mech in zip(labels, mechs)
    ]
    obs = _ObsSession(args, "sweep")
    tasks = obs.tag(tasks)
    started = time.perf_counter()
    results = run_grid(tasks, jobs=args.jobs, store=store)
    elapsed = time.perf_counter() - started
    obs.add_results(tasks, results)

    by_key = {task.key: result for task, result in zip(tasks, results)}
    errors = [r for r in results if isinstance(r, TaskError)]
    rows = []
    for name in args.workloads:
        row: List = [name]
        for label in labels:
            cell = by_key[(name, label)]
            row.append(cell.hit_rate_percent if isinstance(cell, RunResult) else None)
        rows.append(row)
    print(
        render_table(
            ["bench"] + [f"hit% {label}" for label in labels],
            rows,
            title=(
                f"Mechanism sweep: {len(args.workloads)} workloads x "
                f"{len(labels)} mechanisms (scale {args.scale:g}, jobs {args.jobs})"
            ),
        )
    )
    print(
        f"\n{len(tasks)} cells in {elapsed:.2f}s "
        f"({len(tasks) / elapsed:.1f} cells/s)"
        + (f"; store: {args.trace_store}" if store else "")
    )
    obs.finish()
    for error in errors:
        print(f"FAILED {error.key!r}: {error.error}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_sweep_analytic(args, base, values, store) -> int:
    """The ``repro sweep --analytic`` path: one spectrum pass per
    workload predicts every cell; the best cell is replay-witnessed."""
    from repro.reporting.tables import render_table
    from repro.sim.compare import analytic_stream_sweep
    from repro.sim.runner import MissTraceCache

    cache = MissTraceCache(store=store)
    configs = {n: base.with_(n_streams=n) for n in values}
    obs = _ObsSession(args, "sweep")
    started = time.perf_counter()
    rows = []
    witnesses = []
    for name in args.workloads:
        cells = analytic_stream_sweep(
            name, configs, scale=args.scale, seed=args.seed, cache=cache
        )
        rows.append([name] + [100.0 * cells[n].predicted_hit_rate for n in values])
        for n in values:
            cell = cells[n]
            if cell.witnessed:
                witnesses.append(
                    f"  {name} @{n}: predicted {100 * cell.predicted_hit_rate:.1f}% "
                    f"+/- {100 * cell.bound:.1f}, replayed "
                    f"{100 * cell.simulated_hit_rate:.1f}%"
                )
    elapsed = time.perf_counter() - started
    print(
        render_table(
            ["bench"] + [f"hit% @{n}" for n in values],
            rows,
            title=(
                f"Analytic sweep: {len(args.workloads)} workloads x "
                f"{len(values)} predicted configs (scale {args.scale:g})"
            ),
        )
    )
    print("\nwitnessed cells (real replay, within declared bound):")
    for line in witnesses:
        print(line)
    print(
        f"\n{len(args.workloads) * len(values)} cells predicted, "
        f"{len(witnesses)} replayed in {elapsed:.2f}s"
        + (f"; store: {args.trace_store}" if store else "")
    )
    obs.finish()
    return 0


def _cmd_exhibit(args: argparse.Namespace) -> int:
    driver, renderer = _EXHIBITS[args.name]
    store = TraceStore(args.trace_store) if args.trace_store else None
    cache = MissTraceCache(store=store)
    kwargs = {"cache": cache}
    if args.name in experiments.SWEEP_EXHIBITS:
        # The sweep-based exhibits fan out through the parallel engine.
        kwargs.update(jobs=args.jobs, store=store)
    obs = _ObsSession(args, "exhibit")
    obs.set_meta(exhibit=args.name)
    if args.benchmarks:
        if args.name == "table4":
            from repro.workloads import TABLE4_SCALES

            scales = {k: v for k, v in TABLE4_SCALES.items() if k in args.benchmarks}
            data = driver(scales=scales, **kwargs)
        else:
            data = driver(names=args.benchmarks, **kwargs)
    else:
        data = driver(**kwargs)
    print(renderer(data))
    obs.finish()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload, scale=args.scale, seed=args.seed)
    profile = profile_trace(workload.trace())
    print(f"workload          : {workload.name} (scale {workload.scale:g})")
    print(f"trace length      : {profile.length}")
    print(f"data accesses     : {profile.data_accesses} ({profile.writes} writes)")
    print(f"footprint         : {profile.footprint_bytes / (1 << 20):.2f} MB touched")
    print(f"allocated         : {workload.data_set_bytes / (1 << 20):.2f} MB")
    print(f"unit-stride pairs : {100 * profile.unit_stride_fraction:.1f}%")
    print(f"mean block run    : {profile.mean_block_run:.1f} blocks")
    if args.locality:
        _print_locality(workload)
    if args.streams:
        _print_spectrum(workload)
    return 0


def _print_locality(workload) -> int:
    """The ``repro profile --locality`` section: stack-distance summary."""
    from repro.analytic import fa_hit_rate, profile_miss_trace
    from repro.caches.secondary import PAPER_L2_SIZES
    from repro.sim.compare import format_size
    from repro.sim.runner import MissTraceCache

    miss_trace, _ = MissTraceCache().get(workload)
    profiles = profile_miss_trace(miss_trace)
    print("locality (single-pass stack-distance profile of the L1 miss stream):")
    for block_size, prof in sorted(profiles.items()):
        demand = prof.demand_accesses
        cold = prof.cold_reads + prof.cold_writes
        cold_pct = 100.0 * cold / demand if demand else 0.0
        print(
            f"  {block_size}B blocks      : {demand} demand events, "
            f"{prof.unique_blocks} unique blocks, {cold_pct:.1f}% cold, "
            f"{prof.writebacks} writebacks"
        )
        curve = "  ".join(
            f"{format_size(size)}:{100 * fa_hit_rate(prof, size):.1f}%"
            for size in PAPER_L2_SIZES
        )
        print(f"    FA LRU hit rate : {curve}")
    return 0


def _print_spectrum(workload) -> int:
    """The ``repro profile --streams`` section: miss-spectrum summary
    plus closed-form model predictions for the paper's configurations."""
    from repro.analytic import predict_streams, stream_envelope_config
    from repro.sim.runner import MissTraceCache
    from repro.trace.spectrum import extract_spectrum

    miss_trace, _ = MissTraceCache().get(workload)
    spectrum = extract_spectrum(miss_trace)
    demand = spectrum.demand_misses
    covered = spectrum.run_misses
    pct = 100.0 * covered / demand if demand else 0.0
    print("stream spectrum (one-pass run-length/stride decomposition):")
    print(
        f"  demand misses   : {demand} ({spectrum.ifetch_misses} ifetch, "
        f"{spectrum.writebacks} writebacks alongside)"
    )
    print(
        f"  runs            : {spectrum.n_runs} covering {covered} misses "
        f"({pct:.1f}%); {spectrum.lone_misses} lone"
    )
    top = sorted(
        spectrum.stride_histogram().items(), key=lambda kv: -kv[1]
    )[:6]
    print(
        "  top strides     : "
        + "  ".join(f"{stride:+d}blk:{misses}" for stride, misses in top)
    )
    print("  closed-form predictions (hit% +/- declared bound):")
    named = (
        ("no filter", StreamConfig.jouppi()),
        ("unit filter", StreamConfig.filtered()),
        ("filter + czone", StreamConfig.non_unit(czone_bits=19)),
    )
    for label, config in named:
        prediction = predict_streams(spectrum, stream_envelope_config(config))
        print(
            f"    {label:<15}: {100 * prediction.hit_rate:5.1f}% "
            f"+/- {100 * prediction.bound:.1f}  "
            f"(EB~{prediction.eb_estimate:.0f}%)"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.mechanism:
        return _cmd_compare_mechanism(args)
    from repro.baselines import (
        OneBlockLookahead,
        PrefetchingCache,
        ReferencePredictionTable,
    )
    from repro.reporting.tables import render_table
    from repro.sim.runner import MissTraceCache

    obs = _ObsSession(args, "compare")
    obs.set_meta(workload=args.workload, scale=args.scale)
    cache = MissTraceCache(keep_pcs=True)
    miss_trace, _ = cache.get(args.workload, scale=args.scale, seed=args.seed)
    rows = []
    contenders = [
        ("streams (no filter)", lambda mt: replay_streams(StreamConfig.jouppi(), mt)),
        (
            "streams + filter + czone",
            lambda mt: replay_streams(StreamConfig.non_unit(czone_bits=19), mt),
        ),
        ("OBL tagged (16)", OneBlockLookahead(entries=16).run),
        ("prefetching cache (1KB)", PrefetchingCache(blocks=16).run),
        ("RPT, oracle PCs", ReferencePredictionTable().run),
    ]
    for label, run in contenders:
        stats = run(miss_trace)
        rows.append(
            [label, stats.hit_rate_percent, stats.bandwidth.eb_measured]
        )
    print(
        render_table(
            ["prefetcher", "hit %", "EB %"],
            rows,
            title=f"Related-work comparison on {args.workload} (scale {args.scale:g})",
        )
    )
    obs.finish()
    return 0


def _cmd_compare_mechanism(args: argparse.Namespace) -> int:
    """The ``repro compare --mechanism`` path: the minimum matching L2
    for one secondary mechanism, with the whole exact ladder."""
    from repro.mechanisms import parse_mechanism_spec
    from repro.reporting.tables import render_table
    from repro.sim.compare import format_size, min_matching_l2_size

    try:
        mechanism = parse_mechanism_spec(args.mechanism)
    except ValueError as exc:
        print(f"bad --mechanism: {exc}", file=sys.stderr)
        return 2
    store = TraceStore(args.trace_store) if args.trace_store else None
    cache = MissTraceCache(store=store)
    obs = _ObsSession(args, "compare")
    match = min_matching_l2_size(
        args.workload,
        scale=args.scale,
        seed=args.seed,
        cache=cache,
        mechanism=mechanism,
    )
    obs.set_meta(
        workload=match.workload,
        scale=match.scale,
        mechanism=match.mechanism,
        matched_size=match.matched_size,
        configs_simulated=match.configs_simulated,
    )
    rows = [
        [
            format_size(point.size),
            100.0 * point.hit_rate,
            f"{point.assoc}-way/{point.block_size}B",
        ]
        for point in match.l2_hit_rates
    ]
    print(
        render_table(
            ["L2 size", "hit %", "best config"],
            rows,
            title=(
                f"Min matching L2 for {match.mechanism} on {match.workload} "
                f"(scale {match.scale:g})"
            ),
        )
    )
    print(f"\n{match.mechanism} hit rate : {match.stream_hit_rate_percent:.1f}%")
    print(f"min matching L2 : {format_size(match.matched_size)}")
    print(f"evaluated       : {match.configs_simulated} candidate configs")
    obs.finish()
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.caches.cache import CacheConfig
    from repro.caches.secondary import simulate_secondary
    from repro.sim.runner import MissTraceCache
    from repro.timing import TimingModel, l2_system_timing, stream_system_timing

    cache = MissTraceCache()
    miss_trace, summary = cache.get(args.workload, scale=args.scale)
    streams = replay_streams(StreamConfig.non_unit(czone_bits=19), miss_trace)
    l2 = simulate_secondary(
        miss_trace,
        CacheConfig(capacity=args.l2_kb * 1024, assoc=4, block_size=64, policy="lru"),
    )
    model = TimingModel()
    l2_report = l2_system_timing(summary, l2, model)
    stream_report = stream_system_timing(
        summary, streams, model.with_bandwidth_factor(args.bandwidth)
    )
    print(f"workload           : {args.workload} (scale {args.scale:g})")
    print(f"stream hit rate    : {streams.hit_rate_percent:.1f}%")
    print(f"{args.l2_kb}KB L2 hit rate  : {100 * l2.local_hit_rate:.1f}%")
    print(f"L2 design AMAT     : {l2_report.amat:.2f} cycles")
    print(
        f"stream design AMAT : {stream_report.amat:.2f} cycles "
        f"(at {args.bandwidth:g}x bandwidth)"
    )
    speedup = l2_report.amat / stream_report.amat
    verdict = "stream design wins" if speedup > 1 else "L2 design wins"
    print(f"speedup            : {speedup:.2f}x  ({verdict})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import ServiceConfig, run_server

    if args.trace:
        from repro.obs import set_tracing

        set_tracing(True)
    workers = tuple(
        url.strip() for url in (args.workers or "").split(",") if url.strip()
    )
    config = ServiceConfig(
        jobs=args.jobs,
        store_root=args.trace_store,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_ms / 1000.0,
        default_timeout_s=args.timeout,
        worker=args.worker,
        workers=workers,
        register_url=args.register,
        advertise_url=args.advertise,
        fetch_policy=args.fetch_policy,
        fleet_max_inflight=args.fleet_inflight,
        fleet_chunk_timeout_s=args.fleet_timeout,
        fleet_max_attempts=args.fleet_attempts,
        fleet_heartbeat_s=args.fleet_heartbeat,
    )
    try:
        asyncio.run(run_server(config, host=args.host, port=args.port))
    except KeyboardInterrupt:
        print("repro-service shut down", flush=True)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import differ

    if args.replay:
        try:
            divergence = differ.replay(args.replay, n_events=args.events)
        except ValueError as exc:
            print(f"--replay: {exc}", file=sys.stderr)
            return 2
        if divergence is None:
            print(f"{args.replay}: no divergence")
            return 0
        print(divergence)
        return 1

    stages = differ.DEFAULT_STAGES
    if args.stages:
        stages = tuple(name.strip() for name in args.stages.split(",") if name.strip())
        unknown = [name for name in stages if name not in differ.STAGE_FUNCTIONS]
        if unknown:
            print(
                f"unknown stages {unknown}; use a comma-separated subset of "
                + ", ".join(sorted(differ.STAGE_FUNCTIONS)),
                file=sys.stderr,
            )
            return 2
    started = time.perf_counter()
    report = differ.run_corpus(
        seeds=args.seeds,
        seed_start=args.seed_start,
        n_events=args.events,
        registry=not args.no_registry,
        registry_scale=args.registry_scale,
        stages=stages,
        progress=print,
    )
    elapsed = time.perf_counter() - started
    print(
        f"{report.seeds_checked} seeds, {report.stages_run} stages in {elapsed:.1f}s: "
        + ("all consistent" if report.ok else f"{len(report.divergences)} DIVERGENCES")
    )
    for divergence in report.divergences:
        print(f"\n{divergence}")
    return 0 if report.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import load_manifest, summarize, summarize_json

    if args.obs_command == "summarize":
        try:
            manifest = load_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            print(f"cannot read manifest {args.manifest!r}: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(summarize_json(manifest, top=args.top), indent=2))
        else:
            print(summarize(manifest, top=args.top))
        return 0
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _render_top(snap: dict, url: str) -> str:
    """One ``repro top`` frame from a ``/v1/debug`` snapshot."""
    fleet = snap.get("fleet") or {}
    queue = snap.get("queue") or {}
    coalescer = snap.get("coalescer") or {}
    counters = snap.get("counters") or {}
    lines = [
        f"repro top — {url}  pid {snap.get('pid', '?')}  "
        f"role {fleet.get('role', '?')}  up {snap.get('uptime_s', 0.0):.0f}s",
        f"queue   : {queue.get('depth', 0)}/{queue.get('limit', 0)} admitted, "
        f"{queue.get('batcher_pending', 0)} cells awaiting batch flush",
        f"requests: {counters.get('requests', 0)} total, "
        f"{counters.get('rejected', 0)} rejected, "
        f"{counters.get('timeouts', 0)} timeouts, "
        f"{counters.get('failures', 0)} failures",
        f"cells   : {counters.get('cells_requested', 0)} requested, "
        f"{counters.get('cells_executed', 0)} executed, "
        f"{counters.get('cell_errors', 0)} errors, "
        f"{counters.get('result_cache_hits', 0)} cache hits, "
        f"{counters.get('store_fastpath_hits', 0)} store fastpath",
        f"coalesce: {coalescer.get('inflight', 0)} in flight, "
        f"{coalescer.get('hits', 0)} joins "
        f"({100 * coalescer.get('hit_rate', 0.0):.1f}% of requested cells)",
        "percentiles (ms)         p50       p95       p99     count",
    ]
    named = [
        ("request latency", snap.get("latency_ms") or {}),
        ("batch queue wait", snap.get("queue_wait_ms") or {}),
        ("admission wait", snap.get("admission_wait_ms") or {}),
    ]
    named += [
        (f"endpoint {kind}", entry)
        for kind, entry in sorted((snap.get("endpoints") or {}).items())
    ]
    for label, entry in named:
        lines.append(
            f"  {label:<20s}{entry.get('p50', 0.0):8.2f}{entry.get('p95', 0.0):10.2f}"
            f"{entry.get('p99', 0.0):10.2f}{entry.get('count', 0):10d}"
        )
    workers = fleet.get("workers") or []
    if workers:
        chunk = fleet.get("chunk_ms") or {}
        lines.append(
            f"fleet   : {fleet.get('alive', 0)}/{len(workers)} workers alive, "
            f"chunk p95 {chunk.get('p95', 0.0):.1f} ms (n={chunk.get('count', 0)})"
        )
        for worker in workers:
            age = worker.get("heartbeat_age_s")
            heartbeat = f"{age:.1f}s ago" if isinstance(age, (int, float)) else "never"
            lines.append(
                f"  {worker.get('url', '?'):<28s} "
                f"{'up' if worker.get('alive') else 'DOWN':<4s} "
                f"inflight {worker.get('inflight', 0)}  "
                f"chunks {worker.get('dispatched_chunks', 0)}  "
                f"cells {worker.get('dispatched_cells', 0)}  "
                f"retries {worker.get('retries', 0)}  "
                f"hb {heartbeat}"
            )
    log = snap.get("log") or []
    if log:
        lines.append("recent log:")
        for record in log[-8:]:
            extras = " ".join(
                f"{key}={value}"
                for key, value in record.items()
                if key not in ("ts", "level", "logger", "event")
            )
            lines.append(
                f"  {record.get('level', '?'):<7s} "
                f"{record.get('logger', '?')}/{record.get('event', '?')} "
                f"{extras}".rstrip()
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    from urllib.parse import urlsplit

    from repro.service.client import RequestFailed, ServiceClient

    url = args.url if "//" in args.url else f"http://{args.url}"
    parts = urlsplit(url)
    if not parts.hostname:
        print(f"bad --url {args.url!r}", file=sys.stderr)
        return 2
    client = ServiceClient(
        parts.hostname, parts.port or 80, timeout=5.0, retries=0
    )
    try:
        while True:
            try:
                snap = client.debug()
            except (RequestFailed, RuntimeError, OSError) as exc:
                print(f"cannot reach {url}: {exc}", file=sys.stderr)
                return 1
            if not args.once:
                print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
            print(_render_top(snap, url), flush=True)
            if args.once:
                return 0
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "exhibit":
        return _cmd_exhibit(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "timing":
        return _cmd_timing(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "top":
        return _cmd_top(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
