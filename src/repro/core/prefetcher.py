"""The complete stream-buffer prefetch system.

:class:`StreamPrefetcher` wires the pieces of Sections 3, 6 and 7 together
and consumes the primary cache's miss stream:

* every demand miss is compared against the stream heads
  (:class:`~repro.core.bank.StreamBufferBank`);
* on a stream miss, the allocation policy decides whether to reallocate
  the LRU stream: unconditionally (Section 5), after the unit-stride
  filter confirms two consecutive-block misses (Section 6), or — for
  references the unit filter rejects — after the non-unit stride detector
  verifies a constant stride (Section 7);
* write-backs bypass the streams and invalidate stale copies.

The paper's MacroTek-style *partitioned* variant routes instruction-fetch
misses to a separate bank with its own filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.caches.cache import MissEventKind, MissTrace
from repro.check import invariants as _inv
from repro.core.bandwidth import BandwidthReport
from repro.core.bank import Lookup, StreamBufferBank
from repro.core.config import StreamConfig, StrideDetector
from repro.core.filters import UnitStrideFilter
from repro.core.lengths import StreamLengthHistogram
from repro.core.min_delta import MinDeltaDetector
from repro.core.nonunit import CzoneFilter

__all__ = ["StreamStats", "StreamPrefetcher", "build_stride_detector"]


@dataclass
class StreamStats:
    """Counters produced by one prefetcher run.

    ``demand_misses`` are the primary-cache misses presented (the paper's
    hit-rate denominator); ``stream_hits`` the subset serviced by a stream
    head (the numerator).
    """

    config: StreamConfig
    demand_misses: int = 0
    stream_hits: int = 0
    in_flight_matches: int = 0
    ifetch_misses: int = 0
    writebacks: int = 0
    invalidations: int = 0
    prefetches_issued: int = 0
    prefetches_used: int = 0
    allocations: int = 0
    unit_filter_hits: int = 0
    unit_filter_misses: int = 0
    detector_hits: int = 0
    lengths: StreamLengthHistogram = field(default_factory=StreamLengthHistogram)

    @property
    def stream_misses(self) -> int:
        """Demand misses not serviced by a stream."""
        return self.demand_misses - self.stream_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of demand misses that hit in the streams (0..1)."""
        if not self.demand_misses:
            return 0.0
        return self.stream_hits / self.demand_misses

    @property
    def hit_rate_percent(self) -> float:
        return 100.0 * self.hit_rate

    @property
    def bandwidth(self) -> BandwidthReport:
        """Extra-bandwidth accounting for this run."""
        return BandwidthReport(
            prefetches_issued=self.prefetches_issued,
            prefetches_used=self.prefetches_used,
            l1_misses=self.demand_misses,
            allocations=self.allocations,
            depth=self.config.depth,
        )


def build_stride_detector(
    config: StreamConfig,
) -> Optional[Union[CzoneFilter, MinDeltaDetector]]:
    """The non-unit stride detector ``config`` names, or None (Section 7).

    Shared by the scalar lanes and the flat replay engine of
    :mod:`repro.sim.vector`, so both run the same detector objects.
    """
    if config.stride_detector == StrideDetector.CZONE:
        return CzoneFilter(
            entries=config.czone_filter_entries,
            czone_bits=config.czone_bits,
            block_bits=config.block_bits,
            allow_negative=config.allow_negative_strides,
        )
    if config.stride_detector == StrideDetector.MIN_DELTA:
        return MinDeltaDetector(
            entries=config.min_delta_entries,
            block_bits=config.block_bits,
            allow_negative=config.allow_negative_strides,
        )
    return None


class _Lane:
    """One bank plus its allocation machinery (unified or per-I/D)."""

    def __init__(self, config: StreamConfig, n_streams: int):
        self.bank = StreamBufferBank(
            n_streams=n_streams,
            depth=config.depth,
            min_lead=config.min_lead,
            lookup_depth=config.lookup_depth,
        )
        self.unit_filter: Optional[UnitStrideFilter] = (
            UnitStrideFilter(config.unit_filter_entries) if config.has_unit_filter else None
        )
        self.detector = build_stride_detector(config)
        self.allocations = 0

    def handle_miss(self, addr: int, block: int) -> Lookup:
        """Run one demand miss through lookup + allocation policy."""
        result = self.bank.lookup(block)
        if result is not Lookup.MISS:
            return result
        if self.unit_filter is None:
            # Section 5: allocate on every stream miss.
            self.bank.allocate(block + 1, 1)
            self.allocations += 1
            return result
        if self.unit_filter.observe(block):
            self.bank.allocate(block + 1, 1)
            self.allocations += 1
            return result
        if self.detector is not None:
            hit = self.detector.observe(addr)
            if hit is not None:
                self.bank.allocate(hit.start_block, hit.stride_blocks)
                self.allocations += 1
        return result


class StreamPrefetcher:
    """Stream buffers + filters, driven by a primary-cache miss stream."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self._data_lane = _Lane(config, config.n_streams)
        self._ifetch_lane = (
            _Lane(config, config.i_streams) if config.partitioned else self._data_lane
        )
        self.stats = StreamStats(config=config)

    # -- event API ---------------------------------------------------------

    def handle_miss(self, addr: int, is_ifetch: bool = False) -> Lookup:
        """Present one demand miss; returns the lookup outcome."""
        stats = self.stats
        stats.demand_misses += 1
        if is_ifetch:
            stats.ifetch_misses += 1
        block = addr >> self.config.block_bits
        lane = self._ifetch_lane if is_ifetch else self._data_lane
        result = lane.handle_miss(addr, block)
        if result is Lookup.HIT:
            stats.stream_hits += 1
        elif result is Lookup.IN_FLIGHT:
            stats.in_flight_matches += 1
        return result

    def handle_writeback(self, addr: int) -> int:
        """A dirty block travelling to memory; invalidate stale copies."""
        self.stats.writebacks += 1
        block = addr >> self.config.block_bits
        count = self._data_lane.bank.invalidate(block)
        if self._ifetch_lane is not self._data_lane:
            count += self._ifetch_lane.bank.invalidate(block)
        return count

    # -- bulk API ------------------------------------------------------------

    def run(self, miss_trace: MissTrace) -> StreamStats:
        """Consume a whole miss trace and return the final statistics.

        Raises:
            ValueError: if the miss trace's block geometry disagrees with
                the prefetcher configuration.
        """
        if miss_trace.block_bits != self.config.block_bits:
            raise ValueError(
                f"miss trace block_bits {miss_trace.block_bits} != "
                f"config block_bits {self.config.block_bits}"
            )
        wb_kind = int(MissEventKind.WRITEBACK)
        ifetch_kind = int(MissEventKind.IFETCH_MISS)
        kinds = miss_trace.kinds
        if not (miss_trace.has_writebacks or miss_trace.has_ifetch_misses):
            # Fast path: a pure demand-miss stream (no write-backs, no
            # instruction fetches) needs no per-event kind dispatch — every
            # event is a data miss on the data lane.  Semantics are
            # identical to handle_miss; only the dispatch is hoisted.
            stats = self.stats
            block_bits = self.config.block_bits
            lane_handle = self._data_lane.handle_miss
            hit = Lookup.HIT
            in_flight = Lookup.IN_FLIGHT
            hits = 0
            in_flight_matches = 0
            for addr in miss_trace.addrs.tolist():
                result = lane_handle(addr, addr >> block_bits)
                if result is hit:
                    hits += 1
                elif result is in_flight:
                    in_flight_matches += 1
            stats.demand_misses += len(miss_trace)
            stats.stream_hits += hits
            stats.in_flight_matches += in_flight_matches
            return self.finalize()
        handle_miss = self.handle_miss
        handle_writeback = self.handle_writeback
        for addr, kind in zip(miss_trace.addrs.tolist(), kinds.tolist()):
            if kind == wb_kind:
                handle_writeback(addr)
            else:
                handle_miss(addr, is_ifetch=kind == ifetch_kind)
        return self.finalize()

    def finalize(self) -> StreamStats:
        """Close out the run: fold bank counters into the stats object."""
        lanes = [self._data_lane]
        if self._ifetch_lane is not self._data_lane:
            lanes.append(self._ifetch_lane)
        stats = self.stats
        stats.prefetches_issued = 0
        stats.prefetches_used = 0
        stats.allocations = 0
        stats.invalidations = 0
        stats.unit_filter_hits = 0
        stats.unit_filter_misses = 0
        stats.detector_hits = 0
        stats.lengths = StreamLengthHistogram()
        for lane in lanes:
            lane.bank.finalize()
            stats.prefetches_issued += lane.bank.prefetches_issued
            stats.prefetches_used += lane.bank.prefetches_used
            stats.allocations += lane.allocations
            stats.invalidations += lane.bank.invalidations
            if lane.unit_filter is not None:
                stats.unit_filter_hits += lane.unit_filter.hits
                stats.unit_filter_misses += lane.unit_filter.misses
            if lane.detector is not None:
                stats.detector_hits += lane.detector.hits
            for bucket, hits in lane.bank.lengths.hits_by_bucket.items():
                stats.lengths.hits_by_bucket[bucket] += hits
            for bucket, count in lane.bank.lengths.streams_by_bucket.items():
                stats.lengths.streams_by_bucket[bucket] += count
            stats.lengths.zero_length_streams += lane.bank.lengths.zero_length_streams
        if _inv.ENABLED:
            self._check_invariants(stats)
        return stats

    @staticmethod
    def _check_invariants(stats: StreamStats) -> None:
        """Conservation checks on a finalized run (``REPRO_CHECK=1``).

        Every consumed prefetch serviced either a stream hit or an
        in-flight coalesce, each consumption advanced exactly one
        stream's length counter (so the Table 3 histogram conserves),
        and nothing is consumed that was never issued.
        """
        _inv.invariant(
            stats.prefetches_used == stats.stream_hits + stats.in_flight_matches,
            "prefetches_used %d != stream_hits %d + in_flight_matches %d",
            stats.prefetches_used,
            stats.stream_hits,
            stats.in_flight_matches,
        )
        _inv.invariant(
            stats.lengths.total_hits == stats.prefetches_used,
            "length histogram holds %d hits but %d prefetches were consumed",
            stats.lengths.total_hits,
            stats.prefetches_used,
        )
        _inv.invariant(
            stats.prefetches_used <= stats.prefetches_issued,
            "prefetches_used %d exceeds prefetches_issued %d",
            stats.prefetches_used,
            stats.prefetches_issued,
        )
        _inv.invariant(
            stats.stream_hits + stats.in_flight_matches <= stats.demand_misses,
            "stream hits %d + in-flight %d exceed demand misses %d",
            stats.stream_hits,
            stats.in_flight_matches,
            stats.demand_misses,
        )
        _inv.invariant(
            stats.lengths.total_streams == stats.allocations,
            "completed streams %d != allocations %d after finalize",
            stats.lengths.total_streams,
            stats.allocations,
        )
