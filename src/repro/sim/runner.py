"""Run workloads through the memory hierarchy, with miss-trace caching.

The paper's methodology simulates the *primary-cache miss stream* (Shade
traces of L1 misses fed to a stream-buffer simulator).  We follow the
same factoring: the L1 simulation of a (workload, scale, seed, L1-config)
tuple is computed once and cached in-process, then every stream-buffer or
secondary-cache configuration replays the short miss trace.  This is what
makes the parameter sweeps of Figures 3/5/8/9 cheap.

Three extensions harden this for long benchmarking sessions:

* the in-process cache is LRU-bounded (``max_entries``) so sweeps over
  many (workload, scale, seed) tuples cannot grow memory without bound;
* an optional :class:`~repro.trace.store.TraceStore` layers a persistent
  on-disk tier underneath, so repeated benchmark *processes* never
  recompute an L1 simulation either (see ``docs/api.md``, "Scaling
  sweeps");
* L1 summaries are kept apart from the traces
  (:meth:`MissTraceCache.summary`), so a cell whose replay result is
  already stored reads the small summary, never the miss-trace arrays.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Hashable, Optional, Tuple, Union

import time

from repro.caches.cache import Cache, CacheConfig, MissTrace
from repro.caches.split import SplitL1, SplitL1Config
from repro.check import invariants as _inv
from repro.obs.events import StoreEvent, record_event
from repro.obs.metrics import engine_registry
from repro.obs.spans import get_tracer
from repro.core.config import StreamConfig
from repro.mem.address import AddressSpace
from repro.mechanisms import MechanismConfig
from repro.sim.results import L1Summary, RunResult
from repro.sim.vector import replay_secondary, replay_streams, vector_simulate_cache
from repro.trace.compress import compress_consecutive
from repro.trace.events import AccessKind, Trace
from repro.trace.store import TraceStore, canonical_scale, trace_digest
from repro.workloads.base import Workload, get_workload

__all__ = [
    "MissTraceCache",
    "default_cache",
    "resolve_workload_ref",
    "run_result",
    "scalar_simulate_l1",
    "simulate_l1",
]

import numpy as np

#: Default in-process cache bound: generous (a full paper sweep touches
#: ~15 benchmarks x a few scales/seeds) yet finite, so open-ended sweep
#: sessions cannot accumulate thousands of multi-megabyte traces.
DEFAULT_MAX_ENTRIES = 64


def resolve_workload_ref(
    workload: Union[str, Workload], scale: float, seed: int
) -> Tuple[str, float, int, Optional[Workload]]:
    """Normalise a workload reference to ``(name, scale, seed, instance)``.

    A :class:`Workload` instance is authoritative: its own name/scale/seed
    describe what will actually be simulated, and any conflicting
    ``scale``/``seed`` arguments from the caller are ignored.  Every
    consumer (cache keys, result provenance) must resolve through this
    helper so the recorded parameters always match the simulation.  The
    scale is canonicalised (:func:`~repro.trace.store.canonical_scale`)
    so float-noise aliases of one scale share a key and a store digest.
    """
    if isinstance(workload, Workload):
        return workload.name, canonical_scale(workload.scale), workload.seed, workload
    return workload, canonical_scale(scale), seed, None


@dataclass(frozen=True)
class _Key:
    workload: str
    scale: float
    seed: int
    l1: CacheConfig


def _bounded_put(
    entries: OrderedDict, key: Hashable, value: object, bound: Optional[int]
) -> int:
    """Insert as most recent, drop the oldest beyond ``bound``; return
    how many were dropped (the caller holds the lock)."""
    entries[key] = value
    entries.move_to_end(key)
    dropped = 0
    while bound is not None and len(entries) > bound:
        entries.popitem(last=False)
        dropped += 1
    return dropped


class MissTraceCache:
    """In-process cache of (workload x L1) miss traces and L1 summaries.

    Thread safe: the entry maps are guarded by a lock (the service
    orchestrator's warm-store fast path calls :meth:`summary` from worker
    threads).  Concurrent misses on the same key may compute the same
    trace twice — a benign race, since the simulation is deterministic
    and the second insert overwrites with identical data.  Create one per
    benchmarking session (module-level :func:`default_cache` serves the
    common case).

    Args:
        l1_config: primary cache geometry (paper default).
        keep_pcs: propagate synthetic PCs into the miss traces.  Off by
            default — only PC-indexed baselines need them and carrying
            them disables the L1 fast path.
        store: optional persistent :class:`~repro.trace.store.TraceStore`
            consulted on an in-process miss and populated on compute, so
            traces survive across processes and sessions.
        max_entries: LRU bound on in-process entries (None = unbounded),
            applied to the traces, the summaries and the memoised trace
            digests alike.  The default (:data:`DEFAULT_MAX_ENTRIES`)
            comfortably holds a full paper sweep while keeping long
            multi-workload sessions bounded; eviction only drops the
            in-memory copy — a store, if configured, still holds the
            trace.
        hooks: optional callback fired on each lookup with a typed
            :class:`~repro.obs.events.StoreEvent` (``str``-compatible,
            so name-only hooks keep working) — from :meth:`get`,
            ``trace_mem_hit`` (in-process LRU hit), ``trace_store_hit``
            (persistent tier hit) or ``trace_computed`` (fresh L1
            simulation, with the simulation wall time as the event
            duration); from :meth:`summary`, ``summary_mem_hit`` or
            ``summary_store_hit`` (the store's summary read), both
            served without decoding a trace.  The service layer threads
            its metrics registry through here; hooks must be cheap and
            must not raise.  Every event is also folded into the
            process-global engine registry (``engine_runner_*``).
    """

    def __init__(
        self,
        l1_config: Optional[CacheConfig] = None,
        keep_pcs: bool = False,
        store: Optional[TraceStore] = None,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        hooks: Optional[Callable[[str], None]] = None,
    ):
        if max_entries is not None and max_entries <= 0:
            raise ValueError(f"max_entries must be positive or None, got {max_entries}")
        self.l1_config = l1_config if l1_config is not None else CacheConfig.paper_l1()
        self.keep_pcs = keep_pcs
        self.store = store
        self.max_entries = max_entries
        self.hooks = hooks
        self._entries: "OrderedDict[_Key, Tuple[MissTrace, L1Summary]]" = OrderedDict()
        self._summaries: "OrderedDict[_Key, L1Summary]" = OrderedDict()
        # (workload, scale, seed) -> trace digest.  The L1 config and
        # keep_pcs are fixed per cache, so each digest is hashed once.
        self._digests: "OrderedDict[Tuple[str, float, int], str]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0
        self.store_hits = 0

    def _emit(
        self, name: str, digest: Optional[str] = None, duration_s: float = 0.0
    ) -> None:
        event = StoreEvent(name, digest=digest, duration_s=duration_s)
        record_event(event, group="runner")
        if self.hooks is not None:
            self.hooks(event)

    def get(
        self,
        workload: Union[str, Workload],
        scale: float = 1.0,
        seed: int = 0,
    ) -> Tuple[MissTrace, L1Summary]:
        """Miss trace + L1 summary for a workload, computing on first use.

        Accepts a registered workload name or a pre-built instance (the
        latter's own name/scale/seed form the cache key).  Lookup order:
        in-process LRU, then the persistent store (if configured), then a
        fresh L1 simulation whose result populates both tiers.
        """
        name, scale, seed, instance = resolve_workload_ref(workload, scale, seed)
        key = _Key(name, scale, seed, self.l1_config)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
        if cached is not None:
            self._emit("trace_mem_hit")
            return cached
        digest = None
        if self.store is not None:
            digest = self.trace_key(name, scale, seed)
            stored = self.store.get("trace", digest)
            if stored is not None:
                self.store_hits += 1
                self._insert(key, stored)
                self._emit("trace_store_hit", digest=digest)
                self._check_result(key, digest, stored)
                return stored
        if instance is None:
            instance = get_workload(name, scale=scale, seed=seed)
        started = time.perf_counter()
        result = simulate_l1(instance, self.l1_config, keep_pcs=self.keep_pcs)
        computed_s = time.perf_counter() - started
        if self.store is not None:
            self.store.put("trace", digest, result)
        self._insert(key, result)
        self._emit("trace_computed", digest=digest, duration_s=computed_s)
        self._check_result(key, digest, result)
        return result

    def summary(
        self,
        workload: Union[str, Workload],
        scale: float = 1.0,
        seed: int = 0,
        compute: bool = True,
    ) -> Optional[L1Summary]:
        """L1 summary for a workload, decoding its miss trace only as a
        last resort.

        Lookup order: the in-process summaries (kept for every trace this
        cache loaded or computed), then the store's summary read (the
        trace archive's ``meta`` member alone, see
        :meth:`TraceStore.get_summary`), then :meth:`get`.  With
        ``compute=False`` the last step is skipped and a miss returns
        None, so nothing is decoded or simulated.
        """
        name, scale, seed, _ = resolve_workload_ref(workload, scale, seed)
        key = _Key(name, scale, seed, self.l1_config)
        with self._lock:
            summary = self._summaries.get(key)
            if summary is not None:
                self._summaries.move_to_end(key)
        if summary is not None:
            self._emit("summary_mem_hit")
            return summary
        if self.store is not None:
            digest = self.trace_key(name, scale, seed)
            summary = self.store.get_summary("trace", digest)
            if summary is not None:
                with self._lock:
                    _bounded_put(self._summaries, key, summary, self.max_entries)
                self._emit("summary_store_hit", digest=digest)
                return summary
        if not compute:
            return None
        return self.get(workload, scale=scale, seed=seed)[1]

    def _check_result(
        self,
        key: _Key,
        digest: Optional[str],
        result: Tuple[MissTrace, L1Summary],
    ) -> None:
        """``REPRO_CHECK=1`` consistency checks on a freshly produced entry."""
        if not _inv.ENABLED:
            return
        miss_trace, summary = result
        _inv.invariant(
            key.scale == canonical_scale(key.scale),
            "cache key scale %r is not canonical",
            key.scale,
        )
        _inv.invariant(
            miss_trace.block_bits == self.l1_config.block_bits,
            "miss trace block_bits %d != L1 config block_bits %d",
            miss_trace.block_bits,
            self.l1_config.block_bits,
        )
        _inv.invariant(
            miss_trace.n_misses == summary.misses,
            "miss trace carries %d demand misses but the L1 summary says %d",
            miss_trace.n_misses,
            summary.misses,
        )
        if digest is not None:
            _inv.invariant(
                digest
                == trace_digest(
                    key.workload, key.scale, key.seed, self.l1_config, self.keep_pcs
                ),
                "store digest is not reproducible from the cache key",
            )

    def trace_key(self, workload: str, scale: float = 1.0, seed: int = 0) -> str:
        """The persistent-store digest this cache uses for a workload
        (hashed once per ``(workload, scale, seed)``, then memoised)."""
        memo = (workload, scale, seed)
        digest = self._digests.get(memo)
        if digest is None:
            digest = trace_digest(workload, scale, seed, self.l1_config, self.keep_pcs)
            with self._lock:
                _bounded_put(self._digests, memo, digest, self.max_entries)
        return digest

    def _insert(self, key: _Key, value: Tuple[MissTrace, L1Summary]) -> None:
        with self._lock:
            self.evictions += _bounded_put(self._entries, key, value, self.max_entries)
            _bounded_put(self._summaries, key, value[1], self.max_entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._summaries.clear()
            self._digests.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def simulate_l1(
    workload: Workload,
    l1_config: Optional[CacheConfig] = None,
    keep_pcs: bool = False,
) -> Tuple[MissTrace, L1Summary]:
    """Run a workload's trace through the primary cache.

    Data-only traces that :func:`~repro.sim.vector.cache_vector_supported`
    accepts (write-back write-allocate caches, no PCs kept) run through
    the batch engine of :mod:`repro.sim.vector` (set-local run collapse +
    residue replay, bit-identical to the scalar cache); everything else,
    and every trace under ``REPRO_CHECK=1``, runs
    :func:`scalar_simulate_l1`.  Synthetic PCs are stripped unless
    ``keep_pcs`` (they are only needed by PC-indexed baselines and
    disable the L1 fast paths).
    """
    config = l1_config if l1_config is not None else CacheConfig.paper_l1()
    started = time.perf_counter()
    with get_tracer().span("l1.simulate", workload=workload.name):
        trace, has_ifetch = _l1_input(workload, keep_pcs)
        vectorized = None if has_ifetch else vector_simulate_cache(config, trace)
        if vectorized is None:
            result = scalar_simulate_l1(workload, config, keep_pcs)
        else:
            miss_trace, stats = vectorized
            result = miss_trace, L1Summary.from_stats(
                stats, trace_length=len(trace), data_set_bytes=workload.data_set_bytes
            )
    engine_registry().histogram(
        "engine_l1_sim_ms", "wall time of one L1 miss-trace simulation"
    ).observe(1e3 * (time.perf_counter() - started))
    return result


def _l1_input(workload: Workload, keep_pcs: bool) -> Tuple[Trace, bool]:
    """The trace an L1 simulation consumes (synthetic PCs stripped unless
    ``keep_pcs``) and whether it holds instruction fetches."""
    trace = workload.trace()
    has_ifetch = trace.has_ifetch  # cached on the memoized trace instance
    if trace.has_pcs and not keep_pcs:
        trace = Trace(trace.addrs, trace.kinds)
    return trace, has_ifetch


def scalar_simulate_l1(
    workload: Workload, config: CacheConfig, keep_pcs: bool = False
) -> Tuple[MissTrace, L1Summary]:
    """The per-access L1 simulation :func:`simulate_l1` falls back to.

    Traces with instruction fetches run a split I+D L1; otherwise a single
    D-cache simulates the exact consecutive-same-block compression (see
    :mod:`repro.trace.compress`) under write-back + write-allocate, and
    the raw trace under other write policies.  It is the reference the
    batch engine must match (the differ's ``l1`` stage runs both).
    """
    trace, has_ifetch = _l1_input(workload, keep_pcs)
    if has_ifetch:
        split = SplitL1(
            SplitL1Config(icache=replace(config, seed=config.seed + 1), dcache=config)
        )
        miss_trace = split.simulate(trace)
        summary = L1Summary.from_stats(
            split.stats,
            trace_length=len(trace),
            data_set_bytes=workload.data_set_bytes,
            ifetch_misses=split.icache.stats.misses,
        )
        return miss_trace, summary
    cache = Cache(config)
    if config.write_back and config.write_allocate:
        space = AddressSpace(block_size=config.block_size)
        compressed = compress_consecutive(trace, space)
        miss_trace = cache.simulate(
            compressed.trace, weights=compressed.weights, dirty=compressed.dirty
        )
    else:
        # Compression is only exact under write-back + write-allocate
        # (collapsed write hits generate no traffic); simulate raw.
        miss_trace = cache.simulate(trace)
    summary = L1Summary.from_stats(
        cache.stats,
        trace_length=len(trace),
        data_set_bytes=workload.data_set_bytes,
    )
    return miss_trace, summary


_DEFAULT_CACHE: Optional[MissTraceCache] = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_cache() -> MissTraceCache:
    """The shared module-level miss-trace cache (thread safe)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        with _DEFAULT_CACHE_LOCK:
            if _DEFAULT_CACHE is None:
                _DEFAULT_CACHE = MissTraceCache()
    return _DEFAULT_CACHE


def run_result(
    workload: Union[str, Workload],
    config: Union[StreamConfig, MechanismConfig],
    scale: float = 1.0,
    seed: int = 0,
    cache: Optional[MissTraceCache] = None,
) -> RunResult:
    """Simulate one configuration over a workload's cached miss stream.

    Returns the :class:`RunResult` a :func:`~repro.sim.parallel.run_grid`
    cell of ``config`` holds: ``.streams`` is :class:`StreamStats` for a
    :class:`StreamConfig` and :class:`~repro.mechanisms.MechStats` for a
    :class:`~repro.mechanisms.MechanismConfig` (streams, victim cache,
    miss cache or a hybrid stack).

    The recorded provenance (workload/scale/seed) always reflects what
    was simulated: a :class:`Workload` instance's own parameters win over
    any conflicting ``scale``/``seed`` arguments, exactly as they do for
    the cache key (see :func:`resolve_workload_ref`).
    """
    cache = cache if cache is not None else default_cache()
    name, scale, seed, _ = resolve_workload_ref(workload, scale, seed)
    miss_trace, summary = cache.get(workload, scale=scale, seed=seed)
    replay = replay_secondary if isinstance(config, MechanismConfig) else replay_streams
    return RunResult(
        workload=name, scale=scale, seed=seed, l1=summary, streams=replay(config, miss_trace)
    )
