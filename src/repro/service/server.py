"""The asyncio simulation service: orchestrator + HTTP frontend.

Request path (the shape every later scaling PR plugs into)::

    HTTP POST ──► validate (api) ──► admission queue (backpressure)
        ──► per-cell: result LRU ──► warm-store fast path
            ──► coalescer (join in-flight digest)
                ──► micro-batcher ──► run_grid on the shared pool
        ──► encode + metrics

* The **admission queue** bounds concurrently admitted requests; beyond
  ``max_queue`` the service answers 429 immediately (retriable).
* The **result LRU** and the **warm-store fast path** serve repeats
  without touching the pool: once any request — in this process or an
  earlier one — has materialised a cell, its digest is either in memory
  or one JSON read plus one L1-summary read away.
* The **coalescer** keys in-flight work by the trace store's
  ``result_digest``, so N concurrent identical cells run once and the
  result fans out to every waiter.
* The **micro-batcher** merges cells from concurrent requests into
  single :func:`~repro.sim.parallel.run_grid` calls against one
  long-lived worker pool (:func:`~repro.sim.parallel.make_pool`),
  amortising pool IPC across requests.
* **Metrics** for all of the above are exposed at ``GET /metrics``
  (Prometheus text) and ``GET /metrics.json``.

Behind the micro-batcher sits the optional **fleet tier**
(:mod:`repro.fleet`): when workers are registered, flushed batches are
sharded across them by trace digest instead of running on the local
pool; with zero workers the single-host pool path is the fallback and
results are bit-identical either way.  The same server binary is the
worker: ``repro serve --worker`` exposes ``POST /v1/chunk`` (execute a
shard, ship drained telemetry back) and every server exposes
``GET /v1/blob/...`` (raw content-addressed store bytes) so workers can
replicate traces they miss.

The HTTP layer is deliberately minimal stdlib asyncio — HTTP/1.1 with
keep-alive, one request at a time per connection — because the
interesting machinery is behind it, not in it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import AsyncIterator, Dict, List, Optional, Sequence, Tuple, Union

import asyncio

from repro.caches.cache import CacheConfig
from repro.reporting.experiments import EXHIBITS, SWEEP_EXHIBITS
from repro.service import api
from repro.obs.context import bind_trace, current_trace_id, new_trace_id, trace_scope
from repro.obs.log import get_logger, log_ring
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    engine_registry,
    merge_snapshots,
    render_snapshot_text,
    strip_samples,
)
from repro.obs.spans import chrome_trace, get_tracer
from repro.service.batcher import MicroBatcher
from repro.service.coalesce import Coalescer
from repro.service.queue import (
    AdmissionQueue,
    DeadlineExceeded,
    QueueFullError,
    with_deadline,
)
from repro.sim.parallel import SweepTask, TaskError, make_pool, run_grid
from repro.sim.results import RunResult
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore, cell_stats, result_digest

__all__ = ["ServiceConfig", "SimulationService", "ServiceServer", "run_server"]

#: Maximum accepted request body (bytes) — sweeps are tiny; anything
#: bigger is a client bug or abuse.
MAX_BODY_BYTES = 2 << 20

#: Maximum accepted header block (bytes).
MAX_HEADER_BYTES = 64 << 10


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of one service instance.

    Attributes:
        jobs: worker processes in the shared pool (1 = in-process serial
            execution on a thread; still batched and coalesced).
        store_root: persistent :class:`TraceStore` directory; None runs
            storeless (no cross-restart warmth, fast path disabled).
        max_queue: admitted-request bound; beyond it requests get 429.
        max_batch: micro-batcher flush threshold (cells).
        batch_window_s: micro-batcher linger before flushing a partial
            batch.
        default_timeout_s: deadline applied when a request names none.
        max_timeout_s: hard ceiling a request's own ``timeout_s`` is
            clamped to.
        result_cache_entries: in-memory LRU of materialised cells.
        keep_pcs: propagate PCs into miss traces (PC-indexed baselines).
        l1_config: primary cache geometry (None = the paper L1).
        worker: run as a fleet worker (reported by ``/healthz``; workers
            execute chunks and never dispatch to other workers).
        workers: worker base URLs known at startup; more may join via
            ``POST /v1/fleet/register``.
        register_url: frontend base URL to self-register with on start
            (the worker side of ``--register``).
        advertise_url: base URL this server registers itself as (when it
            differs from the bound address, e.g. behind NAT).
        fetch_policy: chunk fetch policy the frontend dispatches with
            (see :class:`repro.service.api.ChunkRequest`).
        fleet_max_inflight: chunk requests in flight per worker.
        fleet_chunk_timeout_s: per-attempt deadline of one chunk.
        fleet_max_attempts: attempts per worker before failing over.
        fleet_heartbeat_s: worker liveness poll period (0 disables).
    """

    jobs: int = 1
    store_root: Optional[str] = None
    max_queue: int = 64
    max_batch: int = 64
    batch_window_s: float = 0.002
    default_timeout_s: float = 300.0
    max_timeout_s: float = 3600.0
    result_cache_entries: int = 1024
    keep_pcs: bool = False
    l1_config: Optional[CacheConfig] = None
    worker: bool = False
    workers: Tuple[str, ...] = ()
    register_url: Optional[str] = None
    advertise_url: Optional[str] = None
    fetch_policy: str = "fallback"
    fleet_max_inflight: int = 4
    fleet_chunk_timeout_s: float = 120.0
    fleet_max_attempts: int = 3
    fleet_heartbeat_s: float = 2.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {self.max_queue}")
        if self.default_timeout_s <= 0 or self.max_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.fetch_policy not in api.FETCH_POLICIES:
            raise ValueError(
                f"fetch_policy must be one of {api.FETCH_POLICIES}, "
                f"got {self.fetch_policy!r}"
            )
        if self.worker and self.workers:
            raise ValueError("a worker cannot itself dispatch to workers")


class _LRU:
    """Tiny insertion-ordered LRU map (single event loop, no locking)."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._entries: Dict[str, object] = {}

    def get(self, key: str):
        value = self._entries.get(key)
        if value is not None:
            # Re-insert to refresh recency (dicts preserve order).
            del self._entries[key]
            self._entries[key] = value
        return value

    def put(self, key: str, value) -> None:
        if self.max_entries <= 0:
            return
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            del self._entries[next(iter(self._entries))]

    def __len__(self) -> int:
        return len(self._entries)


class SimulationService:
    """The orchestrator: queue → coalesce → batch → pool → encode."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._c_requests = m.counter("requests_total", "requests accepted for processing")
        self._c_rejected = m.counter("requests_rejected_total", "429 backpressure rejections")
        self._c_timeouts = m.counter("requests_timeout_total", "requests past their deadline")
        self._c_failures = m.counter("requests_failed_total", "requests failed internally")
        self._c_cells_requested = m.counter("cells_requested_total", "grid cells asked for")
        self._c_cells_executed = m.counter(
            "cells_executed_total", "grid cells actually dispatched to run_grid"
        )
        self._c_cell_errors = m.counter("cell_errors_total", "cells that came back as TaskError")
        self._c_batches = m.counter("batches_total", "run_grid batches flushed")
        self._c_coalesce = m.counter("coalesce_hits_total", "cells joined to in-flight work")
        self._c_result_cache = m.counter("result_cache_hits_total", "cells served from the LRU")
        self._c_store_fast = m.counter(
            "store_fastpath_hits_total", "cells served from the warm store without the pool"
        )
        self._g_queue_depth = m.gauge("queue_depth", "admitted requests in flight")
        self._h_latency = m.histogram("request_latency_ms", "request wall time, ms")
        self._h_batch = m.histogram("batch_cells", "cells per flushed batch")
        self._h_queue_wait = m.histogram(
            "queue_wait_ms", "cell wait from batcher submit to flush, ms"
        )
        self._h_admission_wait = m.histogram(
            "admission_wait_ms", "request wait for an admission slot, ms"
        )
        self._h_endpoints: Dict[str, Histogram] = {}
        # Store/runner hook events surface as counters named after them.
        self._hook_counters = {
            event: m.counter(f"store_{event}_total", f"TraceStore {event} events")
            for event in (
                "trace_hit", "trace_miss", "trace_saved",
                "trace_summary_hit", "trace_summary_miss",
                "result_hit", "result_miss", "result_saved",
            )
        }
        self._hook_counters.update({
            event: m.counter(f"runner_{event}_total", f"MissTraceCache {event} events")
            for event in (
                "trace_mem_hit", "trace_store_hit", "trace_computed",
                "summary_mem_hit", "summary_store_hit",
            )
        })
        self._c_chunks = m.counter("chunk_requests_total", "fleet chunks accepted")
        self._c_chunk_cells = m.counter("chunk_cells_total", "cells arrived in chunks")
        self._c_chunk_unavailable = m.counter(
            "chunk_cells_unavailable_total",
            "require-policy cells failed for want of a trace blob",
        )

        self.l1_config = config.l1_config or CacheConfig.paper_l1()
        self.store: Optional[TraceStore] = None
        if config.store_root is not None:
            self.store = TraceStore(config.store_root, hooks=self._on_cache_event)
        self._cache = MissTraceCache(
            self.l1_config,
            keep_pcs=config.keep_pcs,
            store=self.store,
            hooks=self._on_cache_event,
        )
        self.queue = AdmissionQueue(
            config.max_queue,
            on_depth=self._g_queue_depth.set,
            on_wait=lambda s: self._h_admission_wait.observe(1000 * s),
        )
        self.coalescer = Coalescer()
        self._results = _LRU(config.result_cache_entries)
        self._pool = None
        self._batcher = MicroBatcher(
            self._run_batch,
            max_batch=config.max_batch,
            window_s=config.batch_window_s,
            on_flush=self._on_flush,
            on_wait=lambda s: self._h_queue_wait.observe(1000 * s),
        )
        self._log = get_logger("service")
        self._started_unix = time.time()
        # The fleet tier: workers execute chunks themselves and never
        # re-dispatch, so only non-workers get a dispatcher.  Imported
        # here, not at module top: repro.fleet speaks the service wire
        # format, so the module dependency runs the other way.
        from repro.fleet.dispatch import FleetDispatcher

        self.fleet: Optional[FleetDispatcher] = None
        if not config.worker:
            self.fleet = FleetDispatcher(
                self._run_batch_local,
                l1_config=self.l1_config,
                keep_pcs=config.keep_pcs,
                workers=config.workers,
                fetch_policy=config.fetch_policy,
                max_inflight=config.fleet_max_inflight,
                chunk_timeout_s=config.fleet_chunk_timeout_s,
                max_attempts=config.fleet_max_attempts,
                heartbeat_s=config.fleet_heartbeat_s,
            )
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        if self.config.jobs > 1:
            self._pool = make_pool(
                self.config.jobs,
                l1_config=self.l1_config,
                keep_pcs=self.config.keep_pcs,
                store=self.store,
            )
        await self._batcher.start()
        if self.fleet is not None:
            await self.fleet.start()
        self._started = True

    async def close(self) -> None:
        if not self._started:
            return
        if self.fleet is not None:
            await self.fleet.close()
        await self._batcher.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._started = False

    # -- hooks -------------------------------------------------------------

    def _on_cache_event(self, event: str) -> None:
        counter = self._hook_counters.get(event)
        if counter is not None:
            counter.inc()

    def _on_flush(self, size: int) -> None:
        self._c_batches.inc()
        self._h_batch.observe(size)

    # -- execution ---------------------------------------------------------

    async def _run_batch(
        self, tasks: List[SweepTask]
    ) -> Sequence[Union[RunResult, TaskError]]:
        """Execute one flushed batch (called by the micro-batcher).

        With live workers registered the batch is sharded across the
        fleet; otherwise (or for any cells the fleet fails over) it runs
        on the local pool.  Replays are deterministic, so both paths
        produce bit-identical results.
        """
        self._c_cells_executed.inc(len(tasks))
        if self.fleet is not None and self.fleet.alive_workers():
            return await self.fleet.run_batch(tasks)
        return await self._run_batch_local(tasks)

    async def _run_batch_local(
        self, tasks: List[SweepTask]
    ) -> Sequence[Union[RunResult, TaskError]]:
        """The single-host path: run_grid on this process's pool."""
        if self._pool is not None:
            fn = partial(
                run_grid,
                tasks,
                jobs=self.config.jobs,
                executor=self._pool,
                store=self.store,
                l1_config=self.l1_config,
                keep_pcs=self.config.keep_pcs,
            )
        else:
            # Serial mode: the single-flight batcher serialises access to
            # the shared in-process cache, so no pool and no pickling.
            fn = partial(run_grid, tasks, jobs=1, cache=self._cache)
        return await asyncio.to_thread(fn)

    def _digests(self, cell: api.CellSpec) -> Tuple[str, str]:
        tkey = self._cache.trace_key(cell.workload, cell.scale, cell.seed)
        return tkey, result_digest(tkey, cell.config)

    async def _compute_cell(
        self, cell: api.CellSpec, digest: str
    ) -> Union[RunResult, TaskError]:
        """Materialise one cell: warm store, else batch to the pool."""
        if self.store is not None:
            result = await asyncio.to_thread(self._from_store, cell, digest)
            if result is not None:
                self._c_store_fast.inc()
                self._results.put(digest, result)
                return result
        result = await self._batcher.submit(cell.task())
        if isinstance(result, RunResult):
            self._results.put(digest, result)
        return result

    def _from_store(self, cell: api.CellSpec, digest: str) -> Optional[RunResult]:
        """The warm-store fast path (in a worker thread): the stored
        result with its trace's L1 summary, or None when either misses.

        The summary comes from memory or the trace archive's ``meta``
        member (``compute=False``), so this path never decodes miss-trace
        arrays and never simulates the L1: that stays the batcher's job.
        """
        stats = self.store.get("result", digest)
        if stats is None:
            return None
        summary = self._cache.summary(
            cell.workload, scale=cell.scale, seed=cell.seed, compute=False
        )
        if summary is None:
            return None
        return RunResult(
            workload=cell.workload,
            scale=cell.scale,
            seed=cell.seed,
            l1=summary,
            streams=stats,
            source="store",
        )

    async def _one_cell(
        self, cell: api.CellSpec
    ) -> Tuple[api.CellSpec, Union[RunResult, TaskError]]:
        _, digest = self._digests(cell)
        result = self._results.get(digest)
        if result is not None:
            self._c_result_cache.inc()
        else:
            future, coalesced = self.coalescer.admit(
                digest,
                lambda: asyncio.ensure_future(self._compute_cell(cell, digest)),
                trace_id=cell.trace_id or current_trace_id(),
            )
            if coalesced:
                self._c_coalesce.inc()
                self._record_join(cell, digest)
            # Shield: this waiter's deadline/cancellation must not kill the
            # shared computation other waiters are attached to.
            result = await asyncio.shield(future)
        if isinstance(result, RunResult):
            # One digest serves a bare stream cell and its streams-kind
            # mechanism twin; each reports its own shape.
            stats = cell_stats(cell.config, result.streams)
            if stats is not result.streams:
                result = dataclasses.replace(result, streams=stats)
        return cell, result

    def _record_join(self, cell: api.CellSpec, digest: str) -> None:
        """Record a coalesced follower onto the owning request's trace.

        The join is written as a zero-duration ``coalesce.join`` span on
        the *owner's* trace (plus a debug log record), carrying the
        follower's trace id — so the owner's timeline shows exactly who
        piggybacked on its computation, and a coalesced request's
        latency is explicable from the owner's spans.
        """
        owner = self.coalescer.owner_trace(digest)
        follower = cell.trace_id or current_trace_id()
        tracer = get_tracer()
        if tracer.enabled and owner is not None:
            with bind_trace(owner):
                with tracer.span(
                    "coalesce.join",
                    key=str(cell.key),
                    follower_trace=follower or "",
                ):
                    pass
        self._log.debug(
            "coalesce.join",
            key=api._json_key(cell.key),
            owner_trace=owner,
            follower_trace=follower,
        )

    # -- request handlers --------------------------------------------------

    @contextlib.asynccontextmanager
    async def _admitted(
        self,
        endpoint: str,
        requested_timeout: Optional[float],
        log: str,
        span: Optional[dict] = None,
        /,
        **fields,
    ) -> AsyncIterator[float]:
        """Admit one request: count it, queue it, bound it, time it.

        Takes an admission slot (inside a ``request.admit`` span with
        args ``span`` when given) and yields the clamped timeout for the
        body's ``with_deadline``.  A full queue or a missed deadline is
        counted, logged as ``<log>.reject``/``<log>.timeout`` with
        ``fields`` and re-raised (429/504); every outcome is timed.
        """
        self._c_requests.inc()
        if requested_timeout is None:
            requested_timeout = self.config.default_timeout_s
        timeout = min(requested_timeout, self.config.max_timeout_s)
        started = time.perf_counter()
        admit = (
            get_tracer().span("request.admit", **span)
            if span is not None
            else contextlib.nullcontext()
        )
        try:
            with admit:
                async with self.queue.slot():
                    yield timeout
        except QueueFullError:
            self._c_rejected.inc()
            self._log.warning(f"{log}.reject", **fields)
            raise
        except DeadlineExceeded:
            self._c_timeouts.inc()
            self._log.warning(f"{log}.timeout", timeout_s=timeout, **fields)
            raise
        finally:
            elapsed_ms = 1000 * (time.perf_counter() - started)
            self._h_latency.observe(elapsed_ms)
            self._endpoint_latency(endpoint).observe(elapsed_ms)

    def _endpoint_latency(self, kind: str) -> "Histogram":
        histogram = self._h_endpoints.get(kind)
        if histogram is None:
            histogram = self.metrics.histogram(
                f"endpoint_{kind}_latency_ms", f"{kind} request wall time, ms"
            )
            self._h_endpoints[kind] = histogram
        return histogram

    async def handle_cells(self, request: api.CellsRequest) -> dict:
        """Serve a validated run/sweep request; returns the response body.

        A fresh ``trace_id`` is minted here — admission is where a
        request becomes work — bound for the whole handling extent and
        stamped onto every cell, so frontend spans, coalescer joins,
        chunk dispatches and worker replays all tag the same trace.
        """
        self._c_cells_requested.inc(len(request.cells))
        started = time.perf_counter()
        with trace_scope(new_trace_id()) as trace_id:
            cells = tuple(
                dataclasses.replace(cell, trace_id=trace_id)
                for cell in request.cells
            )
            self._log.info("request.admit", endpoint=request.kind, cells=len(cells))
            span = {"endpoint": request.kind, "cells": len(cells)}
            async with self._admitted(
                request.kind, request.timeout_s, "request", span, endpoint=request.kind
            ) as timeout:
                pairs = await with_deadline(
                    asyncio.gather(*(self._one_cell(cell) for cell in cells)),
                    timeout,
                )
        results = [
            api.encode_cell_result(cell, result)
            for cell, result in pairs
            if isinstance(result, RunResult)
        ]
        errors = [
            api.encode_task_error(result)
            for _, result in pairs
            if isinstance(result, TaskError)
        ]
        if errors:
            self._c_cell_errors.inc(len(errors))
        self._log.info(
            "request.done",
            endpoint=request.kind,
            trace_id=trace_id,
            cells=len(cells),
            failed=len(errors),
            elapsed_ms=round(1000 * (time.perf_counter() - started), 3),
        )
        return api.ok_envelope(
            request.kind,
            results=results,
            errors=errors,
            meta={
                "cells": len(request.cells),
                "failed": len(errors),
                "trace_id": trace_id,
                "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
            },
        )

    async def handle_exhibit(self, request: api.ExhibitRequest) -> dict:
        """Serve a validated exhibit request; returns the response body."""
        started = time.perf_counter()
        with trace_scope(new_trace_id()) as trace_id:
            self._log.info("request.admit", endpoint="exhibit", name=request.name)
            span = {"endpoint": "exhibit"}
            async with self._admitted(
                "exhibit", request.timeout_s, "request", span, endpoint="exhibit"
            ) as timeout:
                rendered = await with_deadline(
                    asyncio.to_thread(self._run_exhibit, request), timeout
                )
        return api.ok_envelope(
            "exhibit",
            name=request.name,
            rendered=rendered,
            meta={
                "trace_id": trace_id,
                "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
            },
        )

    def _run_exhibit(self, request: api.ExhibitRequest) -> str:
        """Run one exhibit driver+renderer (in a worker thread).

        Each request gets its own :class:`MissTraceCache` over the shared
        store — drivers mutate their cache, and requests may overlap.
        """
        driver, renderer = EXHIBITS[request.name]
        cache = MissTraceCache(
            self.l1_config, keep_pcs=self.config.keep_pcs, store=self.store
        )
        kwargs: dict = {"cache": cache}
        if request.name in SWEEP_EXHIBITS:
            kwargs.update(jobs=self.config.jobs, store=self.store)
        if request.benchmarks:
            if request.name == "table4":
                from repro.workloads import TABLE4_SCALES

                scales = {
                    k: v for k, v in TABLE4_SCALES.items() if k in request.benchmarks
                }
                data = driver(scales=scales, **kwargs)
            else:
                data = driver(names=list(request.benchmarks), **kwargs)
        else:
            data = driver(**kwargs)
        return renderer(data)

    # -- fleet handlers ----------------------------------------------------

    async def handle_chunk(self, request: api.ChunkRequest) -> dict:
        """Execute one dispatched shard (the worker side of the fleet).

        Cells run through the same per-cell machinery as a sweep (result
        LRU, warm-store fast path, coalescer, micro-batcher), so a
        worker is just a service whose traffic happens to be chunks.
        Before executing, missing trace blobs are replicated from the
        chunk's ``blob_origin``; under the ``"require"`` policy, cells
        whose trace is available nowhere fail with a tagged TaskError
        instead of being recomputed.

        The response ships this process's drained telemetry (engine
        metrics delta + spans) so the frontend's ``/metrics``, manifests
        and traces cover the whole fleet.
        """
        self._c_chunks.inc()
        self._c_chunk_cells.inc(len(request.cells))
        started = time.perf_counter()
        digests = [self._digests(cell) for cell in request.cells]

        async def one(cell: api.CellSpec, tkey: str, unavailable: set):
            if request.fetch_policy == "require" and tkey in unavailable:
                self._c_chunk_unavailable.inc()
                return TaskError(
                    key=cell.key,
                    workload=cell.workload,
                    error="trace_unavailable",
                    details=(
                        f"trace {tkey} is neither local nor at "
                        f"{request.blob_origin!r} and fetch_policy="
                        "'require' forbids recomputing it"
                    ),
                    worker=os.getpid(),
                )
            _, result = await self._one_cell(cell)
            return result

        async with self._admitted(
            "chunk", request.timeout_s, "chunk", cells=len(request.cells)
        ) as timeout:
            unavailable: set = set()
            if request.blob_origin is not None or request.fetch_policy == "require":
                from repro.fleet.remote import replicate_traces

                wanted = {tkey for tkey, _ in digests}
                unavailable = await asyncio.to_thread(
                    replicate_traces, self.store, request.blob_origin, wanted
                )
            results = await with_deadline(
                asyncio.gather(
                    *(
                        one(cell, tkey, unavailable)
                        for cell, (tkey, _) in zip(request.cells, digests)
                    )
                ),
                timeout,
            )
        encoded = []
        failed = 0
        for cell, result in zip(request.cells, results):
            if isinstance(result, RunResult):
                encoded.append({"ok": True, **api.encode_cell_result(cell, result)})
            else:
                failed += 1
                encoded.append({"ok": False, "error": api.encode_task_error(result)})
        if failed:
            self._c_cell_errors.inc(failed)
        self._log.info(
            "chunk.done",
            cells=len(request.cells),
            failed=failed,
            traces=len({c.trace_id for c in request.cells if c.trace_id}),
            elapsed_ms=round(1000 * (time.perf_counter() - started), 3),
        )
        tracer = get_tracer()
        return api.ok_envelope(
            "chunk",
            cells=encoded,
            telemetry={
                "metrics": engine_registry().drain(),
                "spans": tracer.drain() if tracer.enabled else [],
            },
            meta={
                "pid": os.getpid(),
                "cells": len(request.cells),
                "failed": failed,
                "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
            },
        )

    def handle_register(self, url: str) -> dict:
        """Admit a worker into the fleet (``POST /v1/fleet/register``)."""
        if self.fleet is None:
            raise api.ValidationError("this server is a worker; it has no fleet")
        self.fleet.register(url)
        self._log.info("fleet.register", url=url, workers=len(self.fleet))
        return api.ok_envelope(
            "register", url=url, workers=len(self.fleet)
        )

    def fleet_status(self) -> dict:
        """Fleet topology + bounded per-cell dispatch log (JSON-safe)."""
        if self.fleet is None:
            return api.ok_envelope("fleet_status", role="worker", workers=[], cells=[])
        return api.ok_envelope("fleet_status", role="frontend", **self.fleet.status())

    def health(self) -> dict:
        from repro import __version__

        return {
            "ok": True,
            "v": api.WIRE_VERSION,
            "version": __version__,
            "role": "worker" if self.config.worker else "frontend",
            "pid": os.getpid(),
            "queue_depth": self.queue.depth,
            "inflight_cells": len(self.coalescer),
            "store": str(self.store.root) if self.store is not None else None,
            "jobs": self.config.jobs,
            "fleet_workers": len(self.fleet) if self.fleet is not None else 0,
            "fleet_alive": (
                len(self.fleet.alive_workers()) if self.fleet is not None else 0
            ),
        }

    @staticmethod
    def _percentiles(histogram: "Histogram") -> dict:
        return {
            "p50": round(histogram.percentile(50.0), 3),
            "p95": round(histogram.percentile(95.0), 3),
            "p99": round(histogram.percentile(99.0), 3),
            "count": histogram.count,
        }

    def debug(self, log_tail: int = 50) -> dict:
        """Live introspection state behind ``GET /v1/debug``.

        One JSON object that answers "what is this server doing right
        now": queue depth against its limit, coalescer in-flight count
        and cumulative hit rate, p50/p95/p99 of request latency and
        queue waits (overall and per endpoint), per-worker in-flight
        windows and heartbeat ages, and the tail of the structured log
        ring.  ``repro top`` polls exactly this.
        """
        requested = self._c_cells_requested.value
        coalesced = self._c_coalesce.value
        endpoints = {
            kind: self._percentiles(histogram)
            for kind, histogram in sorted(self._h_endpoints.items())
        }
        fleet: dict = {"role": "worker" if self.config.worker else "frontend"}
        if self.fleet is not None:
            status = self.fleet.status()
            fleet["workers"] = status["workers"]
            fleet["alive"] = len(self.fleet.alive_workers())
            fleet["chunk_ms"] = self._percentiles(self.fleet.chunk_latency)
        return api.ok_envelope(
            "debug",
            pid=os.getpid(),
            uptime_s=round(time.time() - self._started_unix, 3),
            queue={
                "depth": self.queue.depth,
                "limit": self.queue.limit,
                "batcher_pending": self._batcher.pending,
            },
            coalescer={
                "inflight": len(self.coalescer),
                "hits": coalesced,
                "hit_rate": round(coalesced / requested, 4) if requested else 0.0,
            },
            latency_ms=self._percentiles(self._h_latency),
            queue_wait_ms=self._percentiles(self._h_queue_wait),
            admission_wait_ms=self._percentiles(self._h_admission_wait),
            endpoints=endpoints,
            counters={
                "requests": self._c_requests.value,
                "rejected": self._c_rejected.value,
                "timeouts": self._c_timeouts.value,
                "failures": self._c_failures.value,
                "cells_requested": requested,
                "cells_executed": self._c_cells_executed.value,
                "cell_errors": self._c_cell_errors.value,
                "result_cache_hits": self._c_result_cache.value,
                "store_fastpath_hits": self._c_store_fast.value,
            },
            fleet=fleet,
            log=log_ring().tail(log_tail),
        )


# -- HTTP frontend ----------------------------------------------------------


class _HttpError(Exception):
    def __init__(self, status: int, code: str, message: str, **extra):
        self.status = status
        self.body = api.error_envelope(code, message, **extra)
        super().__init__(message)


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class ServiceServer:
    """Binds a :class:`SimulationService` to a TCP port."""

    def __init__(self, service: SimulationService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Start the service and listener; returns the bound address."""
        await self.service.start()
        self._server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.service.fleet is not None and self.service.fleet.blob_origin is None:
            # Workers fetch missing trace blobs from this frontend.
            self.service.fleet.blob_origin = (
                self.service.config.advertise_url
                or f"http://{self.host}:{self.port}"
            )
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # -- connection handling ----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until either side closes.

        HTTP/1.1 keep-alive: the connection is reused for subsequent
        requests unless the client sent ``Connection: close`` (the
        blocking client leans on reuse; :func:`arequest` opts out).
        """
        try:
            while True:
                try:
                    method, path, body, headers = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond_json(writer, exc.status, exc.body, close=True)
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away (EOF between requests is normal)
                close = headers.get("connection", "").lower() == "close"
                await self._dispatch(writer, method, path, body, close=close)
                if close:
                    return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes, Dict[str, str]]:
        try:
            header_block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "headers_too_large", "header block too large")
        if len(header_block) > MAX_HEADER_BYTES:
            raise _HttpError(413, "headers_too_large", "header block too large")
        head, *header_lines = header_block.decode("latin-1").split("\r\n")
        parts = head.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "bad_request_line", f"malformed request line {head!r}")
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError:
            raise _HttpError(400, "bad_content_length", f"bad Content-Length {length!r}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, "body_too_large", f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, body, headers

    def _merged_snapshot(self) -> dict:
        """Service instruments plus the process-global engine registry.

        The engine registry (``repro.obs``) collects what the simulation
        layers record — store IO, cell outcomes, L1 sim time — in this
        process *and*, merged back by ``run_grid``, in the pool workers.
        All its names carry an ``engine_`` prefix, so the union with the
        service's ``service_``/cache instruments is collision-free.
        """
        return merge_snapshots(
            self.service.metrics.snapshot(include_samples=True),
            engine_registry().snapshot(include_samples=True),
        )

    def _merged_metrics_text(self) -> str:
        return render_snapshot_text(self._merged_snapshot())

    def _merged_metrics_json(self) -> dict:
        return strip_samples(self._merged_snapshot())

    async def _serve_blob(
        self, writer: asyncio.StreamWriter, path: str, close: bool
    ) -> None:
        """``GET /v1/blob/<kind>/<digest>`` — raw store bytes or 404."""
        parts = path.split("/")
        if len(parts) != 5 or not parts[4]:
            raise _HttpError(404, "not_found", f"no such path {path!r}")
        kind, digest = parts[3], parts[4]
        store = self.service.store
        if store is None:
            raise _HttpError(404, "blob_not_found", "this server runs storeless")
        try:
            data = (
                await asyncio.to_thread(store.read_blob, kind, digest)
                if store.has_blob(kind, digest)
                else None
            )
        except ValueError as exc:  # unknown blob kind
            raise _HttpError(404, "blob_not_found", str(exc))
        if data is None:
            raise _HttpError(
                404, "blob_not_found", f"no {kind} blob {digest} in this store"
            )
        await self._respond(
            writer, 200, data, "application/octet-stream", close=close
        )

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        close: bool = True,
    ) -> None:
        path = path.split("?", 1)[0]
        try:
            if method == "GET":
                if path in ("/healthz", "/health"):
                    await self._respond_json(
                        writer, 200, self.service.health(), close=close
                    )
                elif path == "/metrics":
                    await self._respond_text(
                        writer, 200, self._merged_metrics_text(), close=close
                    )
                elif path == "/metrics.json":
                    await self._respond_json(
                        writer, 200, self._merged_metrics_json(), close=close
                    )
                elif path == "/v1/fleet/status":
                    await self._respond_json(
                        writer, 200, self.service.fleet_status(), close=close
                    )
                elif path == "/v1/debug":
                    await self._respond_json(
                        writer, 200, self.service.debug(), close=close
                    )
                elif path == "/v1/trace":
                    # The merged span buffer (local + worker-shipped) as a
                    # Perfetto-loadable document, flow arrows included.
                    await self._respond_json(
                        writer,
                        200,
                        chrome_trace(get_tracer().events()),
                        close=close,
                    )
                elif path.startswith("/v1/blob/"):
                    await self._serve_blob(writer, path, close)
                else:
                    raise _HttpError(404, "not_found", f"no such path {path!r}")
                return
            if method != "POST":
                raise _HttpError(405, "method_not_allowed", f"{method} not supported")
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, "bad_json", f"request body is not JSON: {exc}")
            if path == "/v1/run":
                request = api.parse_run_request(payload)
                response = await self.service.handle_cells(request)
            elif path == "/v1/sweep":
                request = api.parse_sweep_request(payload)
                response = await self.service.handle_cells(request)
            elif path == "/v1/exhibit":
                request = api.parse_exhibit_request(payload)
                response = await self.service.handle_exhibit(request)
            elif path == "/v1/chunk":
                request = api.parse_chunk_request(payload)
                response = await self.service.handle_chunk(request)
            elif path == "/v1/fleet/register":
                url = api.parse_register_request(payload)
                response = self.service.handle_register(url)
            else:
                raise _HttpError(404, "not_found", f"no such path {path!r}")
            await self._respond_json(writer, 200, response, close=close)
        except _HttpError as exc:
            await self._respond_json(writer, exc.status, exc.body, close=close)
        except api.ValidationError as exc:
            await self._respond_json(
                writer, 400, api.error_envelope("bad_request", str(exc)), close=close
            )
        except QueueFullError as exc:
            await self._respond_json(
                writer,
                429,
                api.error_envelope(
                    "over_capacity", str(exc), retry_after_s=1.0
                ),
                extra_headers={"Retry-After": "1"},
                close=close,
            )
        except DeadlineExceeded as exc:
            await self._respond_json(
                writer,
                504,
                api.error_envelope("deadline_exceeded", str(exc)),
                close=close,
            )
        except Exception as exc:  # the server must answer, not die
            self.service._c_failures.inc()
            await self._respond_json(
                writer,
                500,
                api.error_envelope(
                    "internal", f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                ),
                close=close,
            )

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = True,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + payload)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client gone; nothing to deliver the response to

    @classmethod
    async def _respond_json(
        cls,
        writer: asyncio.StreamWriter,
        status: int,
        body: dict,
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = True,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        await cls._respond(
            writer, status, payload, "application/json", extra_headers, close=close
        )

    @classmethod
    async def _respond_text(
        cls,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        close: bool = True,
    ) -> None:
        await cls._respond(
            writer,
            status,
            body.encode("utf-8"),
            "text/plain; version=0.0.4",
            close=close,
        )


async def _register_with_frontend(
    register_url: str, advertise_url: str, attempts: int = 60, delay_s: float = 1.0
) -> None:
    """Announce this worker to its frontend, retrying until it is up."""
    from urllib.parse import urlsplit

    from repro.service.client import arequest

    parts = urlsplit(register_url)
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    for attempt in range(attempts):
        try:
            status, body = await arequest(
                host,
                port,
                "POST",
                "/v1/fleet/register",
                {"v": api.WIRE_VERSION, "url": advertise_url},
                timeout=5.0,
            )
            if status == 200 and isinstance(body, dict) and body.get("ok"):
                print(f"repro-service registered with {register_url}", flush=True)
                return
        except (OSError, asyncio.TimeoutError, ValueError):
            pass
        await asyncio.sleep(delay_s)
    print(f"repro-service failed to register with {register_url}", flush=True)


async def run_server(
    config: ServiceConfig, host: str = "127.0.0.1", port: int = 8077
) -> None:
    """Start a server and serve until cancelled (the CLI entry point).

    Prints a ``listening on host:port`` line once bound — the smoke test
    and scripts parse it, so keep the format stable.
    """
    server = ServiceServer(SimulationService(config), host=host, port=port)
    bound_host, bound_port = await server.start()
    print(f"repro-service listening on {bound_host}:{bound_port}", flush=True)
    register_task: Optional[asyncio.Task] = None
    if config.register_url:
        advertise = config.advertise_url or f"http://{bound_host}:{bound_port}"
        register_task = asyncio.ensure_future(
            _register_with_frontend(config.register_url, advertise)
        )
    try:
        await asyncio.Event().wait()  # serve until cancelled
    finally:
        if register_task is not None:
            register_task.cancel()
        await server.close()
