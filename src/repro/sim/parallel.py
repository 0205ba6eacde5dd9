"""Process-pool sweep executor over (workload x config) grids.

Every figure in the paper is a grid: replay one set of miss traces under
a family of stream configurations.  :func:`run_grid` fans such a grid out
over ``concurrent.futures.ProcessPoolExecutor`` workers:

* each worker process owns a :class:`~repro.sim.runner.MissTraceCache`
  hydrated from a shared persistent
  :class:`~repro.trace.store.TraceStore`, so the L1 simulation of each
  workload is computed (at most) once *across the whole fleet* — and not
  at all when the store is warm;
* replayed :class:`~repro.core.prefetcher.StreamStats` are themselves
  memoised in the store (replays are deterministic), so a warm store
  turns a whole figure sweep into result loads plus one small L1-summary
  read per trace — the miss-trace arrays are decoded only for a replay;
* tasks are scheduled in chunks to amortise IPC, a failed cell returns a
  tagged :class:`TaskError` instead of killing the sweep, and results
  are assembled in task order regardless of completion order.

With ``jobs=1`` the grid runs in-process (no pool, no pickling) through
exactly the same code path, which is what the equivalence tests compare
against: serial and parallel execution produce bit-identical statistics.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Union

from repro.caches.cache import CacheConfig
from repro.core.config import StreamConfig
from repro.core.prefetcher import StreamStats
from repro.mechanisms import MechanismConfig, MechStats
from repro.obs.context import bind_trace, current_trace_id
from repro.obs.metrics import engine_registry
from repro.obs.spans import get_tracer
from repro.sim.results import RunResult
from repro.sim.runner import MissTraceCache, resolve_workload_ref
from repro.sim.vector import replay_secondary, replay_streams
from repro.trace.store import TraceStore, cell_stats, result_digest
from repro.workloads.base import Workload

__all__ = [
    "SweepTask",
    "TaskError",
    "SweepExecutionError",
    "make_pool",
    "run_grid",
    "grid_stats",
]

WorkloadRef = Union[str, Workload]


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep grid.

    Attributes:
        key: caller-chosen label the result is reported under (e.g. the
            swept parameter value, or a ``(workload, n)`` pair).
        workload: registered workload name, or an instance.  Names are
            preferred for ``jobs > 1`` — instances are pickled to the
            workers wholesale, including any already-built trace.
        config: stream configuration to replay, or any
            :class:`~repro.mechanisms.MechanismConfig` (a mechanism cell's
            ``RunResult.streams`` then holds :class:`MechStats`).
        scale: input scale (ignored if ``workload`` is an instance).
        seed: workload seed (ignored if ``workload`` is an instance).
        trace_id: optional request trace the cell belongs to
            (:mod:`repro.obs.context`).  Pickled with the task, so the
            trace crosses the spawn boundary into pool workers and tags
            their spans/results.  Provenance only — excluded from
            equality like the matching fields on
            :class:`~repro.sim.results.RunResult`.
    """

    key: Hashable
    workload: WorkloadRef
    config: Union[StreamConfig, MechanismConfig]
    scale: float = 1.0
    seed: int = 0
    trace_id: Optional[str] = field(default=None, compare=False)


def _json_key(key: Hashable):
    """Render a task key as a JSON-safe value (tuples become lists)."""
    if isinstance(key, tuple):
        return [_json_key(part) for part in key]
    if isinstance(key, (str, int, float, bool)) or key is None:
        return key
    return repr(key)


@dataclass(frozen=True)
class TaskError:
    """A failed grid cell, reported in place of its :class:`RunResult`.

    ``wall_time_s``/``worker`` record how long the cell burned before
    failing and which process ran it — without them failed cells are
    invisible in any timing analysis (a sweep stuck on one pathological
    cell used to look idle).  Excluded from equality, like the matching
    fields on :class:`~repro.sim.results.RunResult`.
    """

    key: Hashable
    workload: str
    error: str
    details: str = field(default="", repr=False)
    wall_time_s: float = field(default=0.0, compare=False)
    worker: int = field(default=0, compare=False)
    trace_id: str = field(default="", compare=False)

    def to_payload(self) -> dict:
        """JSON-safe rendering carrying the full traceback.

        Service responses and structured logs use this so a failed cell
        is diagnosable from the payload alone — nothing is dropped.
        """
        return {
            "key": _json_key(self.key),
            "workload": self.workload,
            "error": self.error,
            "traceback": self.details,
            "wall_time_s": self.wall_time_s,
            "worker": self.worker,
            "trace_id": self.trace_id,
        }


class SweepExecutionError(RuntimeError):
    """Raised by :func:`grid_stats` when any grid cell failed.

    ``errors`` keeps every :class:`TaskError` (tracebacks included);
    :meth:`payload` renders them for JSON error responses.
    """

    def __init__(self, errors: Sequence[TaskError]):
        self.errors = list(errors)
        lines = ", ".join(f"{e.key!r}: {e.error}" for e in self.errors[:5])
        more = "" if len(self.errors) <= 5 else f" (+{len(self.errors) - 5} more)"
        hint = ""
        if self.errors and self.errors[0].details:
            last = self.errors[0].details.strip().splitlines()[-1]
            hint = f" [first traceback ends: {last}]"
        super().__init__(f"{len(self.errors)} sweep task(s) failed: {lines}{more}{hint}")

    def payload(self) -> List[dict]:
        """Every failed cell as a JSON-safe dict (key, error, traceback)."""
        return [error.to_payload() for error in self.errors]


def _run_one(task: SweepTask, cache: MissTraceCache) -> Union[RunResult, TaskError]:
    """Execute one cell against a (possibly store-backed) cache.

    The stored result is looked up first: a hit needs only the trace's
    L1 summary (:meth:`MissTraceCache.summary`), and the miss trace is
    fetched or simulated only for a replay.

    Every cell — success or failure — is timed and tagged with the pid
    of the process that ran it, wrapped in a ``cell`` span, and counted
    in the engine registry under its outcome (``store``/``replayed``/
    ``error``).  Manifests and traces are built entirely from these
    per-cell records, so they work identically in serial and pooled
    runs.
    """
    name, scale, seed, _ = resolve_workload_ref(task.workload, task.scale, task.seed)
    registry = engine_registry()
    trace_id = task.trace_id or current_trace_id() or ""
    started = time.perf_counter()
    try:
        with bind_trace(task.trace_id), get_tracer().span(
            "cell", key=str(task.key), workload=name
        ):
            store = cache.store
            config = task.config
            stats: Optional[Union[StreamStats, MechStats]] = None
            if store is not None:
                digest = result_digest(cache.trace_key(name, scale, seed), config)
                stats = store.get("result", digest)
            if stats is not None:
                source = "store"
                summary = cache.summary(task.workload, scale=scale, seed=seed)
            else:
                source = "replayed"
                miss_trace, summary = cache.get(task.workload, scale=scale, seed=seed)
                mech = isinstance(config, MechanismConfig)
                with get_tracer().span(
                    "mech.replay" if mech else "stream.replay", workload=name
                ):
                    stats = (replay_secondary if mech else replay_streams)(
                        config, miss_trace
                    )
                if store is not None:
                    store.put("result", digest, stats)
            stats = cell_stats(config, stats)
        wall = time.perf_counter() - started
        _count_cell(registry, source, wall)
        return RunResult(
            workload=name,
            scale=scale,
            seed=seed,
            l1=summary,
            streams=stats,
            wall_time_s=wall,
            worker=os.getpid(),
            source=source,
            trace_id=trace_id,
        )
    except Exception as exc:  # tagged, not fatal: one bad cell must not kill a sweep
        wall = time.perf_counter() - started
        _count_cell(registry, "error", wall)
        return TaskError(
            key=task.key,
            workload=name,
            error=f"{type(exc).__name__}: {exc}",
            details=traceback.format_exc(),
            wall_time_s=wall,
            worker=os.getpid(),
            trace_id=trace_id,
        )


def _count_cell(registry, source: str, wall: float) -> None:
    """Tally one finished cell in the engine registry."""
    registry.counter("engine_cells_total", "grid cells executed").inc()
    registry.counter(
        f"engine_cells_{source}_total", f"grid cells with outcome {source!r}"
    ).inc()
    registry.histogram("engine_cell_wall_ms", "wall time of one grid cell").observe(
        1e3 * wall
    )


# -- worker-process state ---------------------------------------------------

_WORKER_CACHE: Optional[MissTraceCache] = None


def _init_worker(
    l1_config: CacheConfig,
    keep_pcs: bool,
    store_root: Optional[str],
    trace_enabled: bool = False,
) -> None:
    """Build this worker's cache once (executor ``initializer``).

    ``trace_enabled`` carries the parent's tracer state across the
    spawn boundary: spawned workers start with a fresh (disabled)
    module tracer, so the parent snapshots ``get_tracer().enabled`` at
    pool-creation time and replays it here.
    """
    global _WORKER_CACHE
    store = TraceStore(store_root) if store_root is not None else None
    _WORKER_CACHE = MissTraceCache(l1_config, keep_pcs=keep_pcs, store=store)
    # Fork-started workers inherit the parent's registry contents and
    # span buffer; shipping those back would double-count them.  Every
    # worker starts from zero telemetry.
    engine_registry().drain()
    tracer = get_tracer()
    tracer.clear()
    tracer.enabled = trace_enabled


def _run_chunk(index: int, chunk: List[SweepTask]):
    """Run one chunk of tasks in a worker; never raises.

    Besides the per-task results, each chunk ships back the telemetry
    the worker accumulated while running it: a drained (snapshot +
    reset) engine-registry delta, and any span events.  Draining means
    repeated chunks from the same worker never double-count, so the
    parent can merge every payload unconditionally.
    """
    assert _WORKER_CACHE is not None, "worker initializer did not run"
    tracer = get_tracer()
    with tracer.span("grid.chunk", index=index, tasks=len(chunk)):
        results = [_run_one(task, _WORKER_CACHE) for task in chunk]
    telemetry = {
        "metrics": engine_registry().drain(),
        "spans": tracer.drain() if tracer.enabled else [],
    }
    return index, results, telemetry


def _worker_ready() -> bool:
    """No-op task used to force worker spin-up (see :func:`make_pool`)."""
    return _WORKER_CACHE is not None


# -- the executor -----------------------------------------------------------


def make_pool(
    jobs: int,
    l1_config: Optional[CacheConfig] = None,
    keep_pcs: bool = False,
    store: Optional[TraceStore] = None,
    warm: bool = True,
) -> ProcessPoolExecutor:
    """A worker pool reusable across many :func:`run_grid` calls.

    :func:`run_grid` builds (and tears down) a pool per invocation,
    which is right for one-shot sweeps but wasteful for a long-lived
    caller such as ``repro.service`` that dispatches many small batches.
    This constructs the same initialized pool once; pass it to
    :func:`run_grid` via ``executor=``.  The ``l1_config``/``keep_pcs``/
    ``store`` baked in here must match what later ``run_grid`` calls
    assume — workers are initialized exactly once.

    Workers use the ``spawn`` start method: a long-lived caller holds
    sockets and threads that fork-started children would silently
    inherit (an accepted connection duplicated into a worker never
    reaches EOF at the client), and spawn is immune by construction.
    ``warm=True`` additionally forces every worker to spin up *now*, so
    the first real batch does not pay the spawn+import latency.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    if l1_config is None:
        l1_config = CacheConfig.paper_l1()
    store_root = str(store.root) if store is not None else None
    pool = ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_init_worker,
        initargs=(l1_config, keep_pcs, store_root, get_tracer().enabled),
    )
    if warm:
        for future in [pool.submit(_worker_ready) for _ in range(jobs)]:
            future.result()
    return pool


def run_grid(
    tasks: Sequence[SweepTask],
    jobs: int = 1,
    cache: Optional[MissTraceCache] = None,
    store: Optional[TraceStore] = None,
    l1_config: Optional[CacheConfig] = None,
    keep_pcs: bool = False,
    chunk_size: Optional[int] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> List[Union[RunResult, TaskError]]:
    """Execute a sweep grid, serially or across a process pool.

    Args:
        tasks: grid cells; results come back in the same order.
        jobs: worker processes (``<= 1`` runs in-process, no pool).
        cache: in-process cache for the serial path; for ``jobs > 1`` its
            ``l1_config``/``keep_pcs``/``store`` seed the workers (whose
            entries cannot be shared back).
        store: persistent trace store shared by all workers; defaults to
            ``cache.store``.  Without one, each worker recomputes the L1
            simulations it needs — correct, but the store is what makes
            parallel and repeated runs fast.
        l1_config: primary cache geometry (defaults to ``cache``'s, or
            the paper L1).
        keep_pcs: propagate PCs into the miss traces.
        chunk_size: tasks per scheduling unit (default: enough for ~4
            chunks per worker, amortising task pickling, with all cells
            of one trace kept together; see :func:`_chunk_positions`).
        executor: an already-initialized pool from :func:`make_pool`,
            reused across calls and **not** shut down here.  Its baked-in
            ``l1_config``/``keep_pcs``/``store`` take precedence over the
            arguments above, which only shape chunking.

    Returns:
        One :class:`RunResult` per task, with :class:`TaskError` standing
        in for any cell whose simulation raised.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if cache is not None:
        if l1_config is None:
            l1_config = cache.l1_config
        keep_pcs = keep_pcs or cache.keep_pcs
        if store is None:
            store = cache.store
    if l1_config is None:
        l1_config = CacheConfig.paper_l1()

    if executor is None and (jobs <= 1 or len(tasks) <= 1):
        if cache is None:
            cache = MissTraceCache(l1_config, keep_pcs=keep_pcs, store=store)
        with get_tracer().span("grid.run", cells=len(tasks), jobs=1):
            return [_run_one(task, cache) for task in tasks]

    workers = jobs
    if executor is not None:
        workers = max(1, executor._max_workers)
    positions = _chunk_positions(tasks, workers, chunk_size)
    chunks = [[tasks[i] for i in chunk] for chunk in positions]
    store_root = str(store.root) if store is not None else None
    results: List[Union[RunResult, TaskError, None]] = [None] * len(tasks)
    pool = executor
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            initializer=_init_worker,
            initargs=(l1_config, keep_pcs, store_root, get_tracer().enabled),
        )
    try:
        with get_tracer().span("grid.run", cells=len(tasks), jobs=workers):
            futures = [
                pool.submit(_run_chunk, i, chunk) for i, chunk in enumerate(chunks)
            ]
            for future in as_completed(futures):
                index, chunk_results, telemetry = future.result()
                for position, result in zip(positions[index], chunk_results):
                    results[position] = result
                # Fold each worker's drained telemetry into this process
                # so sweeps observe one registry and one trace no matter
                # how many processes did the work.
                engine_registry().merge(telemetry.get("metrics") or {})
                get_tracer().extend(telemetry.get("spans") or [])
    finally:
        if executor is None:
            pool.shutdown()
    return results


def _chunk_positions(
    tasks: Sequence[SweepTask], workers: int, chunk_size: Optional[int]
) -> List[List[int]]:
    """Split task positions into scheduling chunks.

    An explicit ``chunk_size`` slices the grid in order.  By default a
    chunk holds ~1/4 of a worker's share, and when the grid has at least
    as many distinct ``(workload, scale, seed)`` traces as workers, every
    cell of a trace goes into one chunk (whole traces are packed until a
    chunk reaches that size): on a cold store each trace is then
    simulated by exactly one worker, not by every worker that draws one
    of its cells.  With fewer traces than workers, slicing keeps every
    worker busy.
    """
    size = chunk_size
    if size is None:
        size = max(1, math.ceil(len(tasks) / (workers * 4)))
        by_trace: Dict[tuple, List[int]] = {}
        for position, task in enumerate(tasks):
            name, scale, seed, _ = resolve_workload_ref(
                task.workload, task.scale, task.seed
            )
            by_trace.setdefault((name, scale, seed), []).append(position)
        if len(by_trace) >= workers:
            chunks: List[List[int]] = [[]]
            for cells in by_trace.values():
                if len(chunks[-1]) >= size:
                    chunks.append([])
                chunks[-1].extend(cells)
            return chunks
    return [list(range(i, min(i + size, len(tasks)))) for i in range(0, len(tasks), size)]


def grid_stats(
    tasks: Sequence[SweepTask],
    jobs: int = 1,
    cache: Optional[MissTraceCache] = None,
    store: Optional[TraceStore] = None,
    **kwargs: Any,
) -> Dict[Hashable, Union[StreamStats, MechStats]]:
    """Like :func:`run_grid`, keyed by task key and reduced to stats.

    Raises:
        SweepExecutionError: if any cell failed (the sweep helpers want
            a complete dict or nothing).
    """
    results = run_grid(tasks, jobs=jobs, cache=cache, store=store, **kwargs)
    errors = [r for r in results if isinstance(r, TaskError)]
    if errors:
        raise SweepExecutionError(errors)
    return {
        task.key: result.streams
        for task, result in zip(tasks, results)
        if isinstance(result, RunResult)
    }
