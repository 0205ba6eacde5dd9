"""Vectorized batch replay engines and the dispatchers that choose them.

The scalar simulators in :mod:`repro.caches.cache` and
:mod:`repro.core.prefetcher` step access-by-access through Python loops;
profiling (``l1.simulate`` / ``stream.replay`` spans, BENCH_PR5) shows
those loops dominate every executed sweep cell.  This module rebuilds the
hot paths as batch engines that stay **bit-identical** to the scalar
code — same miss events in the same order, same statistics, same RNG
draws — so results are interchangeable and the differential harness can
prove equivalence (the ``vector`` stage of ``repro check``).

Design (see docs/vectorized.md for the full argument):

* **Set-local collapse (L1).**  An access is a *guaranteed hit* whenever
  the previous access to the same cache set touched the same block: no
  other block intervened in that set, so no replacement policy can have
  evicted it, and servicing it changes no replacement state (for LRU the
  block is already most-recent; hit-dirtiness is carried as a per-run
  flag).  The whole trace is segmented set-locally with numpy (stable
  argsort by set index, adjacent same-block comparison), collapsing
  70-95% of accesses on the paper's workloads.  Only the residue — the
  first access of each set-local run — is replayed through a tight
  per-policy Python loop that mirrors :meth:`Cache.simulate` exactly,
  including the shared-RNG victim draws of random replacement.  This is
  strictly stronger than the *globally* consecutive collapse of
  :func:`repro.trace.compress.compress_consecutive` and subsumes it.

* **Flat stream replay.**  With the paper's bank semantics (head-only
  lookup, ``min_lead`` 0, unified lanes) a stream's FIFO is always the
  arithmetic block window ``head, head + stride, ...`` of ``depth``
  blocks (stride 1 unless the Section 7 stride detector allocated it),
  so the per-entry ``StreamEntry`` objects and per-stream list shuffling
  of :class:`StreamBufferBank` can be replaced by a few ints per stream
  plus one dict mapping head blocks to their multiplicity for O(1) miss
  detection.  The unit filter and the stride detector are the scalar
  lane's own objects.  Configurations outside that family (partitioned
  banks, ``lookup_depth`` > 1, latency model) fall back to the scalar
  prefetcher.

The Table 4 L2 grid needs no batch engine here: its write-allocate LRU
configurations are answered by one stack-distance pass per set count
(:func:`~repro.caches.sampling.l2_ladder`), which uses the same
set-local collapse of adjacent repeats.

Engine dispatch depends on the input alone: each batch engine serves
exactly the inputs its support predicate (:func:`cache_vector_supported`,
:func:`streams_vector_supported`) accepts and returns None elsewhere,
and its dispatcher then runs the scalar code.  Under ``REPRO_CHECK=1`` every predicate refuses, so the
scalar code's per-operation runtime invariants keep their coverage; the
differ's ``vector`` stage drives the batch engines directly
(``force=True``) so they stay differentially tested even then.
"""

from __future__ import annotations

import random
from collections import Counter, OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.caches.cache import CacheConfig, CacheStats, MissEventKind, MissTrace
from repro.check import invariants as _inv
from repro.core.config import StreamConfig
from repro.core.filters import UnitStrideFilter
from repro.core.lengths import StreamLengthHistogram, bucket_of
from repro.core.prefetcher import StreamPrefetcher, StreamStats, build_stride_detector
from repro.mechanisms import (
    MechanismConfig,
    MechStats,
    build_mechanism,
    combine_member_stats,
    mech_stats_from_streams,
)
from repro.trace.events import AccessKind, Trace

__all__ = [
    "cache_vector_supported",
    "vector_simulate_cache",
    "streams_vector_supported",
    "vector_replay_streams",
    "replay_streams",
    "replay_secondary",
]

_WRITE = int(AccessKind.WRITE)
_WB = int(MissEventKind.WRITEBACK)
_IFETCH_MISS = int(MissEventKind.IFETCH_MISS)


# ---------------------------------------------------------------------------
# Shared set-local segmentation
# ---------------------------------------------------------------------------


def _collapse_set_local(
    blocks: np.ndarray, set_mask: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment a block stream into set-local same-block runs.

    Returns ``(kept, starts_sorted, order)`` where ``kept`` holds the
    original indices of each run's first access in original trace order,
    ``order`` is the stable set-grouping permutation and ``starts_sorted``
    the run starts within that permutation (for ``reduceat`` folds).
    Callers fold per-run payloads (dirtiness, demand counts) with
    :func:`_fold_runs`.
    """
    sets = blocks & set_mask
    if set_mask <= 0xFFFF:
        sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    sorted_blocks = blocks[order]
    # Within one set's stable subsequence, an adjacent equal block means
    # the previous access to this set was the same block: a guaranteed
    # hit.  Across set boundaries blocks always differ (the set index is
    # a function of the block), so no mask on set equality is needed.
    dup = np.empty(len(sorted_blocks), dtype=bool)
    if len(dup):
        dup[0] = False
        np.equal(sorted_blocks[1:], sorted_blocks[:-1], out=dup[1:])
    starts_sorted = np.flatnonzero(~dup)
    kept = np.sort(order[starts_sorted])
    return kept, starts_sorted, order


def _fold_runs(
    payload_sorted: np.ndarray,
    starts_sorted: np.ndarray,
    order: np.ndarray,
    kept: np.ndarray,
    reducer,
) -> np.ndarray:
    """Reduce a per-access payload over set-local runs, in ``kept`` order."""
    per_run = reducer(payload_sorted, starts_sorted)
    full = np.empty(order.shape[0], dtype=per_run.dtype)
    full[order[starts_sorted]] = per_run
    return full[kept]


# ---------------------------------------------------------------------------
# L1 / generic set-associative cache
# ---------------------------------------------------------------------------


def _collapse_config(config: CacheConfig) -> bool:
    """The set-local collapse's domain: write-back + write-allocate (the
    dirty-collapse domain, see :mod:`repro.trace.compress`) under any of
    the three replacement policies."""
    return (
        config.write_back
        and config.write_allocate
        and config.policy in ("random", "lru", "fifo")
    )


def _cache_envelope(config: CacheConfig, trace: Trace) -> bool:
    """The L1 engine's envelope: the set-local collapse's domain over a
    trace without PCs (miss events would need per-event PC tracking)."""
    return _collapse_config(config) and not trace.has_pcs


def cache_vector_supported(config: CacheConfig, trace: Trace) -> bool:
    """Does :func:`vector_simulate_cache` serve ``config`` over ``trace``?

    The batch engine covers the dirty-collapse domain for all three
    replacement policies.  PC-carrying traces keep the scalar path, as
    does ``REPRO_CHECK=1`` so the per-access invariant hooks retain
    coverage.
    """
    return _cache_envelope(config, trace) and not _inv.ENABLED


def vector_simulate_cache(
    config: CacheConfig, trace: Trace, force: bool = False
) -> Optional[Tuple[MissTrace, CacheStats]]:
    """Batch-simulate a set-associative cache over a raw trace.

    Bit-identical to feeding ``trace`` through
    :meth:`repro.caches.cache.Cache.simulate` (with the runner's
    compression applied for WB+WA): same miss/write-back event stream,
    same statistics, same RNG consumption for random replacement.

    Returns:
        ``(miss_trace, stats)``, or None exactly where
        :func:`cache_vector_supported` refuses the input (``force`` only
        bypasses the ``REPRO_CHECK`` stand-down, for the differ's vector
        stage).
    """
    if not _cache_envelope(config, trace) or (_inv.ENABLED and not force):
        return None

    n = len(trace)
    block_bits = config.block_bits
    if n == 0:
        return (
            MissTrace(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), block_bits
            ),
            CacheStats(),
        )

    set_mask = config.n_sets - 1
    blocks = trace.addrs >> block_bits
    kept, starts_sorted, order = _collapse_set_local(blocks, set_mask)

    is_write = trace.kinds == _WRITE
    run_dirty = _fold_runs(
        is_write[order], starts_sorted, order, kept, np.logical_or.reduceat
    )
    kept_write = is_write[kept].view(np.uint8)
    # One small int per residue access: bit 0 = the miss-event kind
    # (READ_MISS=0 / WRITE_MISS=1 == is_write), bit 1 = run dirtiness.
    flag_col = (kept_write + 2 * (kept_write | run_dirty.view(np.uint8))).tolist()
    block_col = blocks[kept].tolist()
    addr_col = trace.addrs[kept].tolist()

    out_addrs: List[int] = []
    out_kinds: List[int] = []
    if config.policy == "random":
        _residue_random(
            config, set_mask, block_col, flag_col, addr_col, out_addrs, out_kinds
        )
    else:
        _residue_ordered(
            config, set_mask, block_col, flag_col, addr_col, out_addrs, out_kinds
        )

    kinds_arr = np.asarray(out_kinds, dtype=np.uint8)
    addrs_arr = np.asarray(out_addrs, dtype=np.int64)
    read_misses = int(np.count_nonzero(kinds_arr == int(MissEventKind.READ_MISS)))
    write_misses = int(np.count_nonzero(kinds_arr == int(MissEventKind.WRITE_MISS)))
    misses = read_misses + write_misses
    stats = CacheStats(
        accesses=n,
        hits=n - misses,
        misses=misses,
        read_misses=read_misses,
        write_misses=write_misses,
        writebacks=int(np.count_nonzero(kinds_arr == _WB)),
    )
    return MissTrace(addrs_arr, kinds_arr, block_bits), stats


def _residue_random(
    config: CacheConfig,
    set_mask: int,
    block_col: List[int],
    flag_col: List[int],
    addr_col: List[int],
    out_addrs: List[int],
    out_kinds: List[int],
) -> None:
    """Residue replay, random replacement (mirrors _simulate_fast_random).

    Blocks embed their set index, so one global residency dict stands in
    for the per-set dicts; victim draws consume ``Random(config.seed)``
    in the same order as the scalar cache.
    """
    assoc = config.assoc
    block_bits = config.block_bits
    rng = random.Random(config.seed)
    # randrange(assoc) is exactly _randbelow(assoc) for positive ints;
    # binding the inner method skips the argument-parsing wrapper.
    randbelow = getattr(rng, "_randbelow", None) or rng.randrange
    resident: dict = {}
    slots: List[List[int]] = [[] for _ in range(set_mask + 1)]
    append_addr = out_addrs.append
    append_kind = out_kinds.append
    wb_kind = _WB
    for block, flags, addr in zip(block_col, flag_col, addr_col):
        if block in resident:
            if flags > 1:
                resident[block] = 1
            continue
        append_addr(addr)
        append_kind(flags & 1)
        set_slots = slots[block & set_mask]
        if len(set_slots) >= assoc:
            slot = randbelow(assoc)
            victim = set_slots[slot]
            if resident.pop(victim):
                append_addr(victim << block_bits)
                append_kind(wb_kind)
            set_slots[slot] = block
        else:
            set_slots.append(block)
        resident[block] = flags >> 1


def _residue_ordered(
    config: CacheConfig,
    set_mask: int,
    block_col: List[int],
    flag_col: List[int],
    addr_col: List[int],
    out_addrs: List[int],
    out_kinds: List[int],
) -> None:
    """Residue replay for LRU/FIFO (mirrors the general scalar loop)."""
    assoc = config.assoc
    block_bits = config.block_bits
    lru = config.policy == "lru"
    sets: List["OrderedDict[int, int]"] = [
        OrderedDict() for _ in range(set_mask + 1)
    ]
    append_addr = out_addrs.append
    append_kind = out_kinds.append
    wb_kind = _WB
    for block, flags, addr in zip(block_col, flag_col, addr_col):
        entries = sets[block & set_mask]
        if block in entries:
            if lru:
                entries.move_to_end(block)
            if flags > 1:
                entries[block] = 1
            continue
        append_addr(addr)
        append_kind(flags & 1)
        if len(entries) >= assoc:
            victim, victim_dirty = entries.popitem(last=False)
            if victim_dirty:
                append_addr(victim << block_bits)
                append_kind(wb_kind)
        entries[block] = flags >> 1


# ---------------------------------------------------------------------------
# Stream-buffer replay
# ---------------------------------------------------------------------------


def _flat_window_config(config: StreamConfig) -> bool:
    """The flat engine's envelope: unified lanes, head-only comparison
    and zero-latency prefetches, with or without a stride detector."""
    return not config.partitioned and config.lookup_depth <= 1 and config.min_lead == 0


def streams_vector_supported(config: StreamConfig) -> bool:
    """Does :func:`replay_streams` serve ``config`` on the flat engine?

    With the paper's bank semantics every stream's FIFO is an arithmetic
    block window, unit-strided or not, so only partitioned lanes,
    ``lookup_depth`` > 1 and ``min_lead`` > 0 fall back to the scalar
    prefetcher — and every config does under ``REPRO_CHECK``.
    """
    return _flat_window_config(config) and not _inv.ENABLED


def vector_replay_streams(
    config: StreamConfig, miss_trace: MissTrace, force: bool = False
) -> Optional[StreamStats]:
    """Flat-state stream-buffer replay, bit-identical to the scalar run.

    Returns None exactly where :func:`streams_vector_supported` refuses
    ``config`` (``force`` only bypasses the ``REPRO_CHECK`` stand-down).

    Raises:
        ValueError: on block-geometry mismatch, like the scalar run.
    """
    if not _flat_window_config(config) or (_inv.ENABLED and not force):
        return None
    if miss_trace.block_bits != config.block_bits:
        raise ValueError(
            f"miss trace block_bits {miss_trace.block_bits} != "
            f"config block_bits {config.block_bits}"
        )

    kinds = miss_trace.kinds
    has_writebacks = miss_trace.has_writebacks
    n_events = len(miss_trace)
    wb_count = miss_trace.n_writebacks if has_writebacks else 0
    ifetch_count = (
        int(np.count_nonzero(kinds == _IFETCH_MISS))
        if miss_trace.has_ifetch_misses
        else 0
    )
    block_bits = config.block_bits
    addr_col = miss_trace.addrs.tolist()

    n_streams = config.n_streams
    depth = config.depth
    reach = depth - 1
    unit_filter = (
        UnitStrideFilter(config.unit_filter_entries) if config.has_unit_filter else None
    )
    observe = unit_filter.observe if unit_filter is not None else None
    # The Section 7 detector sees the raw address of every bank miss the
    # unit filter rejects, exactly as in the scalar lane.
    detector = build_stride_detector(config)
    detect = detector.observe if detector is not None else None

    # Flat per-stream state: stream i holds the depth blocks from lo[i]
    # to hi[i] in steps of strides[i] (its head is lo[i] for a positive
    # stride, hi[i] for a negative one), minus the blocks in invs[i]
    # (invalidated by write-backs).  heads[i] caches the head block
    # (None when invalid or never allocated), and head_count is a
    # multiset of the valid head blocks so a bank miss is a single dict
    # probe.  A window only moves in its stride's direction, so a block
    # that left it never returns before the stream is reallocated, which
    # keeps the invalid sets exact.  hits_since[i] is -1 until stream i
    # is first allocated; the LRU order hands out never-used streams
    # first.
    strides = [1] * n_streams
    lo = [1] * n_streams  # empty windows: lo > hi
    hi = [0] * n_streams
    hits_since = [-1] * n_streams
    invs: List[Optional[set]] = [None] * n_streams
    heads: List[Optional[int]] = [None] * n_streams
    head_count: dict = {}
    lru_order = list(range(n_streams))

    invalidations = 0
    finished_lengths: List[int] = []

    head_count_get = head_count.get
    if has_writebacks:
        # Mixed stream: write-backs interleave with demand misses.
        for addr, kind in zip(addr_col, kinds.tolist()):
            block = addr >> block_bits
            if kind == _WB:
                # Invalidate stale copies in every stream window.
                for i in range(n_streams):
                    if lo[i] <= block <= hi[i]:
                        if (block - lo[i]) % strides[i]:
                            continue  # between two stride steps
                        inv = invs[i]
                        if inv is None:
                            inv = invs[i] = set()
                        elif block in inv:
                            continue
                        inv.add(block)
                        invalidations += 1
                        if heads[i] == block:
                            heads[i] = None
                            count = head_count[block]
                            if count == 1:
                                del head_count[block]
                            else:
                                head_count[block] = count - 1
                continue
            count = head_count_get(block)
            if count:
                # Head hit on the lowest-indexed matching stream, like
                # the scalar bank's heads.index scan.
                i = heads.index(block)
                if count == 1:
                    del head_count[block]
                else:
                    head_count[block] = count - 1
                hits_since[i] += 1
                stride = strides[i]
                lo[i] += stride
                hi[i] += stride
                new_head = block + stride
                inv = invs[i]
                if inv is not None and new_head in inv:
                    heads[i] = None
                else:
                    heads[i] = new_head
                    head_count[new_head] = head_count_get(new_head, 0) + 1
                lru_order.remove(i)
                lru_order.append(i)
                continue
            # Bank miss: the unit filter (if any) gates allocation, and
            # the stride detector (if any) gets what the filter rejects.
            if observe is None or observe(block):
                start = block + 1
                stride = 1
            elif detect is None:
                continue
            else:
                found = detect(addr)
                if found is None:
                    continue
                start = found.start_block
                stride = found.stride_blocks
            i = lru_order.pop(0)
            finished_lengths.append(hits_since[i])
            old_head = heads[i]
            if old_head is not None:
                count = head_count[old_head]
                if count == 1:
                    del head_count[old_head]
                else:
                    head_count[old_head] = count - 1
            hits_since[i] = 0
            invs[i] = None
            strides[i] = stride
            if stride > 0:
                lo[i] = start
                hi[i] = start + reach * stride
            else:
                lo[i] = start + reach * stride
                hi[i] = start
            heads[i] = start
            head_count[start] = head_count_get(start, 0) + 1
            lru_order.append(i)
    else:
        # Pure demand stream (ifetch misses included: the unified lane
        # treats them like data misses) — no per-event kind dispatch, and
        # no invalidations, so heads never go invalid and the window
        # bounds are never read.
        for addr in addr_col:
            block = addr >> block_bits
            count = head_count_get(block)
            if count:
                i = heads.index(block)
                if count == 1:
                    del head_count[block]
                else:
                    head_count[block] = count - 1
                hits_since[i] += 1
                new_head = block + strides[i]
                heads[i] = new_head
                head_count[new_head] = head_count_get(new_head, 0) + 1
                lru_order.remove(i)
                lru_order.append(i)
                continue
            if observe is None or observe(block):
                start = block + 1
                stride = 1
            elif detect is None:
                continue
            else:
                found = detect(addr)
                if found is None:
                    continue
                start = found.start_block
                stride = found.stride_blocks
            i = lru_order.pop(0)
            finished_lengths.append(hits_since[i])
            old_head = heads[i]
            if old_head is not None:
                count = head_count[old_head]
                if count == 1:
                    del head_count[old_head]
                else:
                    head_count[old_head] = count - 1
            hits_since[i] = 0
            strides[i] = stride
            heads[i] = start
            head_count[start] = head_count_get(start, 0) + 1
            lru_order.append(i)

    finished_lengths.extend(hits_since)
    # Every allocation ends in exactly one finished length, and every
    # head hit (each consuming one prefetch and issuing its replacement)
    # lands in one; the -1s are streams that were never allocated.
    tally = Counter(finished_lengths)
    tally.pop(-1, None)
    allocations = sum(tally.values())
    hits = sum(length * times for length, times in tally.items())

    lengths = StreamLengthHistogram()
    # The histogram is a bag, so bulk-record distinct lengths at once.
    for length, times in tally.items():
        if length == 0:
            lengths.zero_length_streams += times
        else:
            bucket = bucket_of(length)
            lengths.hits_by_bucket[bucket] += length * times
            lengths.streams_by_bucket[bucket] += times

    return StreamStats(
        config=config,
        demand_misses=n_events - wb_count,
        stream_hits=hits,
        in_flight_matches=0,
        ifetch_misses=ifetch_count,
        writebacks=wb_count,
        invalidations=invalidations,
        prefetches_issued=hits + depth * allocations,
        prefetches_used=hits,
        allocations=allocations,
        unit_filter_hits=unit_filter.hits if unit_filter is not None else 0,
        unit_filter_misses=unit_filter.misses if unit_filter is not None else 0,
        detector_hits=detector.hits if detector is not None else 0,
        lengths=lengths,
    )


def replay_streams(config: StreamConfig, miss_trace: MissTrace) -> StreamStats:
    """Replay a miss trace through stream buffers.

    The single entry point used by the runner, the parallel sweep workers
    and the Table 4 search: the flat-window engine where
    :func:`streams_vector_supported` holds, the scalar
    :class:`StreamPrefetcher` otherwise.
    """
    stats = vector_replay_streams(config, miss_trace)
    if stats is not None:
        return stats
    return StreamPrefetcher(config).run(miss_trace)


def replay_secondary(mechanism: MechanismConfig, miss_trace: MissTrace) -> MechStats:
    """Replay a miss trace through any secondary mechanism.

    The mechanism-generic sibling of :func:`replay_streams` and the one
    way to replay a mechanism config:

    * ``streams`` delegates to :func:`replay_streams`;
    * ``victim``/``misscache`` run their scalar mechanism — the
      flat-window engine cannot represent their buffer state;
    * ``hybrid`` composes two-phase: each front member consumes the trace
      through ``run_filter`` and the next member replays its residual
      (unserviced demand misses plus every write-back, in order), so a
      trailing stream member dispatches like any stream config.  This
      equals presenting each event to the members in turn (the golden
      ``RefHybridStack`` does that; the differ's ``hybrid`` stage checks
      the two agree) because a front member's state never depends on
      the members behind it.
    """
    if mechanism.kind == "streams":
        assert mechanism.streams is not None
        return mech_stats_from_streams(
            mechanism, replay_streams(mechanism.streams, miss_trace)
        )
    if mechanism.kind == "hybrid":
        member_stats = []
        residual = miss_trace
        last = len(mechanism.members) - 1
        for i, member in enumerate(mechanism.members):
            if i == last:
                member_stats.append(replay_secondary(member, residual))
            else:
                stats, residual = build_mechanism(member).run_filter(residual)
                member_stats.append(stats)
        return combine_member_stats(mechanism, member_stats)
    return build_mechanism(mechanism).run(miss_trace)
