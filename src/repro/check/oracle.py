"""Golden reference models for differential testing.

Deliberately simple, scalar, loop-per-access reimplementations of the
simulators, written from the DESIGN.md / paper semantics:

* :class:`RefCache` / :func:`ref_simulate_l1` — set-associative cache and
  the split I+D primary cache (paper Section 4.1 / Section 8 geometries);
* :class:`RefStreamPrefetcher` — multi-way stream buffers with LRU
  reallocation (Section 3), the unit-stride allocation filter (Section
  6), the czone FSM (Section 7, Figure 7) and the minimum-delta
  alternative, including bandwidth accounting and the Table 3 length
  histogram.

These models share **no code** with ``repro.caches``/``repro.core`` —
only the frozen config dataclasses (pure data) and the integer event
encodings cross the boundary.  Everything here favours obviousness over
speed: plain lists and dicts, one explicit loop per access, no caching
of derived state.  The differ (:mod:`repro.check.differ`) runs both
sides and compares events and counters bit-for-bit.

Event/kind encodings (must match ``AccessKind``/``MissEventKind``):
reads are 0, writes 1, instruction fetches 2 on the access side;
read misses 0, write misses 1, write-backs 2, ifetch misses 3 on the
miss-event side.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ACCESS_READ",
    "ACCESS_WRITE",
    "ACCESS_IFETCH",
    "EV_READ_MISS",
    "EV_WRITE_MISS",
    "EV_WRITEBACK",
    "EV_IFETCH_MISS",
    "RefCache",
    "ref_simulate_l1",
    "RefStreamPrefetcher",
    "ref_bucket_of",
]

ACCESS_READ = 0
ACCESS_WRITE = 1
ACCESS_IFETCH = 2

EV_READ_MISS = 0
EV_WRITE_MISS = 1
EV_WRITEBACK = 2
EV_IFETCH_MISS = 3


def _log2(value: int) -> int:
    bits = value.bit_length() - 1
    if value <= 0 or (1 << bits) != value:
        raise ValueError(f"{value} is not a positive power of two")
    return bits


class RefCache:
    """Reference set-associative cache.

    One list of ``[block, dirty]`` pairs per set.  For ``lru`` the list is
    ordered least-recently-used first; for ``fifo`` oldest-inserted
    first; for ``random`` the list position is the physical slot and the
    victim slot is drawn from ``random.Random(seed).randrange(assoc)`` —
    the same generator and draw sequence as the optimized simulator, so
    victim choices (and therefore the whole run) are comparable
    bit-for-bit.
    """

    def __init__(
        self,
        capacity: int,
        assoc: int,
        block_size: int,
        policy: str,
        write_back: bool,
        write_allocate: bool,
        seed: int,
    ):
        self.block_bits = _log2(block_size)
        self.n_sets = capacity // (assoc * block_size)
        self.assoc = assoc
        self.policy = policy
        self.write_back = write_back
        self.write_allocate = write_allocate
        self.sets: List[List[List[int]]] = [[] for _ in range(self.n_sets)]
        self.rng = random.Random(seed)
        self.accesses = 0
        self.hits = 0
        self.read_misses = 0
        self.write_misses = 0
        self.writebacks = 0

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    def _find(self, entries: List[List[int]], block: int) -> int:
        for position, entry in enumerate(entries):
            if entry[0] == block:
                return position
        return -1

    def access(self, addr: int, kind: int, events: List[Tuple[int, int]]) -> bool:
        """One access; miss/write-back events append to ``events``.

        Returns True on a hit.  Instruction fetches are treated as reads
        (the caller routes them to the right cache and relabels the miss
        event).
        """
        self.accesses += 1
        is_write = kind == ACCESS_WRITE
        block = addr >> self.block_bits
        set_index = block % self.n_sets
        entries = self.sets[set_index]
        position = self._find(entries, block)
        if position >= 0:
            self.hits += 1
            entry = entries[position]
            if self.policy == "lru":
                entries.pop(position)
                entries.append(entry)
            if is_write:
                if self.write_back:
                    entry[1] = 1
                else:
                    # Write-through: the store itself travels to memory.
                    events.append((block << self.block_bits, EV_WRITEBACK))
            return True
        # Miss.
        if is_write:
            self.write_misses += 1
            events.append((addr, EV_WRITE_MISS))
        else:
            self.read_misses += 1
            events.append((addr, EV_READ_MISS))
        if is_write and not self.write_allocate:
            # No fetch; the store goes straight to memory.
            events.append((block << self.block_bits, EV_WRITEBACK))
            return False
        dirty = 1 if (is_write and self.write_back) else 0
        if self.policy == "random":
            if len(entries) >= self.assoc:
                slot = self.rng.randrange(self.assoc)
                victim_block, victim_dirty = entries[slot]
                if victim_dirty:
                    self.writebacks += 1
                    events.append((victim_block << self.block_bits, EV_WRITEBACK))
                entries[slot] = [block, dirty]
            else:
                entries.append([block, dirty])
        else:
            if len(entries) >= self.assoc:
                victim_block, victim_dirty = entries.pop(0)
                if victim_dirty:
                    self.writebacks += 1
                    events.append((victim_block << self.block_bits, EV_WRITEBACK))
            entries.append([block, dirty])
        if is_write and not self.write_back:
            events.append((block << self.block_bits, EV_WRITEBACK))
        return False


def ref_simulate_l1(
    addrs: Sequence[int],
    kinds: Sequence[int],
    capacity: int,
    assoc: int,
    block_size: int,
    policy: str = "random",
    write_back: bool = True,
    write_allocate: bool = True,
    seed: int = 0,
) -> Tuple[List[Tuple[int, int]], Dict[str, int]]:
    """Reference primary-cache simulation of a raw access trace.

    Data accesses go to a D-cache built from the given parameters;
    instruction fetches (if any) to an I-cache with the same geometry and
    ``seed + 1``, their misses labelled :data:`EV_IFETCH_MISS`.  Returns
    the ordered ``(addr, kind)`` miss-event list plus the primary cache's
    summary: references, demand misses, dirty evictions, ifetch misses,
    the miss rate and the trace length.
    """
    dcache = RefCache(
        capacity, assoc, block_size, policy, write_back, write_allocate, seed
    )
    icache = RefCache(
        capacity, assoc, block_size, policy, write_back, write_allocate, seed + 1
    )
    events: List[Tuple[int, int]] = []
    ifetch_misses = 0
    for addr, kind in zip(addrs, kinds):
        if kind == ACCESS_IFETCH:
            before = len(events)
            hit = icache.access(addr, ACCESS_READ, events)
            if not hit:
                ifetch_misses += 1
                # Relabel the read-miss event the I-cache just appended.
                addr_ev, _ = events[before]
                events[before] = (addr_ev, EV_IFETCH_MISS)
        else:
            dcache.access(addr, kind, events)
    accesses = dcache.accesses + icache.accesses
    misses = dcache.misses + icache.misses
    summary = {
        "accesses": accesses,
        "misses": misses,
        "writebacks": dcache.writebacks + icache.writebacks,
        "ifetch_misses": ifetch_misses,
        "miss_rate": misses / accesses if accesses else 0.0,
        "trace_length": len(addrs),
    }
    return events, summary


# -- stream-buffer reference ------------------------------------------------


def ref_bucket_of(length: int) -> Tuple[int, int]:
    """Table 3 length bucket for a completed stream (length >= 1)."""
    if length <= 5:
        return (1, 5)
    if length <= 10:
        return (6, 10)
    if length <= 15:
        return (11, 15)
    if length <= 20:
        return (16, 20)
    return (21, 0)


_BUCKETS = ((1, 5), (6, 10), (11, 15), (16, 20), (21, 0))


class _RefStream:
    """One stream buffer: a FIFO of ``[block, valid, issue_seq]`` slots."""

    def __init__(self, depth: int):
        self.depth = depth
        self.active = False
        self.stride = 1
        self.hits_since_alloc = 0
        self.fifo: List[List[int]] = []
        self.next_block = 0


class _RefLane:
    """One bank of streams plus its allocation filters."""

    def __init__(self, config, n_streams: int):
        self.depth = config.depth
        self.min_lead = config.min_lead
        self.lookup_depth = config.lookup_depth
        self.streams = [_RefStream(config.depth) for _ in range(n_streams)]
        self.lru = list(range(n_streams))  # least recent first
        self.seq = 0
        self.prefetches_issued = 0
        self.prefetches_used = 0
        self.bank_hits = 0
        self.invalidations = 0
        self.allocations = 0
        self.hits_by_bucket = {bucket: 0 for bucket in _BUCKETS}
        self.streams_by_bucket = {bucket: 0 for bucket in _BUCKETS}
        self.zero_length_streams = 0

        self.unit_entries = config.unit_filter_entries
        self.unit_table: List[int] = []  # expected-next blocks, oldest first
        self.unit_hits = 0
        self.unit_misses = 0

        self.detector = config.stride_detector
        self.allow_negative = config.allow_negative_strides
        self.block_bits = config.block_bits
        self.detector_hits = 0
        # czone: [tag, state, last_addr, stride] rows, oldest first.
        self.czone_bits = config.czone_bits
        self.czone_entries = config.czone_filter_entries
        self.czone_table: List[List[int]] = []
        # min-delta: last N miss addresses, oldest first.
        self.md_entries = config.min_delta_entries
        self.md_history: List[int] = []
        self.md_max_stride_blocks = 1 << 20

    # -- bank ----------------------------------------------------------

    def _record_length(self, length: int) -> None:
        if length == 0:
            self.zero_length_streams += 1
            return
        bucket = ref_bucket_of(length)
        self.hits_by_bucket[bucket] += length
        self.streams_by_bucket[bucket] += 1

    def _lookup(self, block: int) -> str:
        """'hit' / 'in_flight' / 'miss', mirroring the bank semantics."""
        self.seq += 1
        index = -1
        # Head comparators: first stream (index order) whose head is a
        # valid entry holding the block.
        for i, stream in enumerate(self.streams):
            if stream.active and stream.fifo:
                head = stream.fifo[0]
                if head[1] and head[0] == block:
                    index = i
                    break
        if index < 0 and self.lookup_depth > 1:
            # Quasi-associative extension: a match deeper in the FIFO
            # skips the stale entries ahead of it (wasted prefetches) and
            # tops the FIFO back up.
            for i, stream in enumerate(self.streams):
                if not stream.active:
                    continue
                position = -1
                for p, entry in enumerate(stream.fifo[: self.lookup_depth]):
                    if entry[1] and entry[0] == block:
                        position = p
                        break
                if position > 0:
                    del stream.fifo[:position]
                    while len(stream.fifo) < stream.depth:
                        stream.fifo.append([stream.next_block, 1, self.seq])
                        stream.next_block += stream.stride
                        self.prefetches_issued += 1
                    index = i
                    break
        if index < 0:
            return "miss"
        stream = self.streams[index]
        result = "hit"
        if self.min_lead and self.seq - stream.fifo[0][2] < self.min_lead:
            result = "in_flight"
        if result == "hit":
            self.bank_hits += 1
        # Either way the prefetched data is consumed and the stream
        # advances (an in-flight match coalesces with the demand fetch).
        self.prefetches_used += 1
        stream.fifo.pop(0)
        stream.hits_since_alloc += 1
        stream.fifo.append([stream.next_block, 1, self.seq])
        stream.next_block += stream.stride
        self.prefetches_issued += 1
        self.lru.remove(index)
        self.lru.append(index)
        return result

    def _allocate(self, start_block: int, stride: int) -> None:
        index = self.lru[0]
        stream = self.streams[index]
        if stream.active:
            self._record_length(stream.hits_since_alloc)
        stream.fifo = []
        stream.active = True
        stream.stride = stride
        stream.hits_since_alloc = 0
        block = start_block
        for _ in range(stream.depth):
            stream.fifo.append([block, 1, self.seq])
            block += stride
            self.prefetches_issued += 1
        stream.next_block = block
        self.lru.remove(index)
        self.lru.append(index)

    def invalidate(self, block: int) -> int:
        count = 0
        for stream in self.streams:
            for entry in stream.fifo:
                if entry[1] and entry[0] == block:
                    entry[1] = 0
                    count += 1
        self.invalidations += count
        return count

    def finalize(self) -> None:
        for stream in self.streams:
            if stream.active:
                self._record_length(stream.hits_since_alloc)
                stream.fifo = []
                stream.active = False
                stream.hits_since_alloc = 0

    # -- filters -------------------------------------------------------

    def _unit_observe(self, block: int) -> bool:
        if block in self.unit_table:
            self.unit_table.remove(block)
            self.unit_hits += 1
            return True
        self.unit_misses += 1
        expected = block + 1
        if expected in self.unit_table:
            # Refresh to the newest position rather than duplicate.
            self.unit_table.remove(expected)
            self.unit_table.append(expected)
            return False
        if len(self.unit_table) >= self.unit_entries:
            self.unit_table.pop(0)
        self.unit_table.append(expected)
        return False

    def _block_stride(self, delta_bytes: int) -> int:
        """Byte stride -> block stride, rounding toward zero."""
        if delta_bytes >= 0:
            return delta_bytes >> self.block_bits
        return -((-delta_bytes) >> self.block_bits)

    def _czone_observe(self, addr: int) -> Optional[Tuple[int, int]]:
        """Figure 7 FSM per partition; returns (start_block, stride)."""
        tag = addr >> self.czone_bits
        row = None
        for candidate in self.czone_table:
            if candidate[0] == tag:
                row = candidate
                break
        if row is None:
            if len(self.czone_table) >= self.czone_entries:
                self.czone_table.pop(0)  # insertion order, no refresh
            # state 1 = META1 (first address seen), 2 = META2.
            self.czone_table.append([tag, 1, addr, 0])
            return None
        _, state, last_addr, stride = row
        if state == 1:
            row[1] = 2
            row[3] = addr - last_addr
            row[2] = addr
            return None
        # META2: verify the stride; on mismatch restart the guess.  A
        # verified stride leaves the row untouched unless it allocates.
        delta = addr - last_addr
        if not (delta == stride and delta != 0):
            row[3] = delta
            row[2] = addr
            return None
        stride_blocks = self._block_stride(delta)
        if stride_blocks == 0:
            # Sub-block stride: the unit filter owns this case.
            return None
        if stride_blocks < 0 and not self.allow_negative:
            return None
        self.czone_table.remove(row)  # freed on stream detection
        self.detector_hits += 1
        block = addr >> self.block_bits
        return block + stride_blocks, stride_blocks

    def _min_delta_observe(self, addr: int) -> Optional[Tuple[int, int]]:
        best = None
        for past in self.md_history:
            delta = addr - past
            if delta == 0:
                continue
            if best is None or abs(delta) < abs(best):
                best = delta
        self.md_history.append(addr)
        if len(self.md_history) > self.md_entries:
            self.md_history.pop(0)
        if best is None:
            return None
        stride_blocks = self._block_stride(best)
        if stride_blocks == 0:
            return None
        if stride_blocks < 0 and not self.allow_negative:
            return None
        if abs(stride_blocks) > self.md_max_stride_blocks:
            return None
        self.detector_hits += 1
        block = addr >> self.block_bits
        return block + stride_blocks, stride_blocks

    # -- per-miss policy ------------------------------------------------

    def handle_miss(self, addr: int, block: int) -> str:
        result = self._lookup(block)
        if result != "miss":
            return result
        if self.unit_entries <= 0:
            # Section 5: allocate on every stream miss.
            self._allocate(block + 1, 1)
            self.allocations += 1
            return result
        if self._unit_observe(block):
            self._allocate(block + 1, 1)
            self.allocations += 1
            return result
        if self.detector == "czone":
            hit = self._czone_observe(addr)
        elif self.detector == "min-delta":
            hit = self._min_delta_observe(addr)
        else:
            hit = None
        if hit is not None:
            self._allocate(hit[0], hit[1])
            self.allocations += 1
        return result


class RefStreamPrefetcher:
    """Reference stream-buffer system driven by a miss-event stream."""

    def __init__(self, config):
        self.config = config
        self.data_lane = _RefLane(config, config.n_streams)
        self.ifetch_lane = (
            _RefLane(config, config.i_streams) if config.partitioned else self.data_lane
        )
        self.demand_misses = 0
        self.stream_hits = 0
        self.in_flight_matches = 0
        self.ifetch_misses = 0
        self.writebacks = 0

    def handle_event(self, addr: int, kind: int) -> str:
        """One miss event; returns 'hit'/'miss'/'in_flight'/'writeback'."""
        if kind == EV_WRITEBACK:
            self.writebacks += 1
            block = addr >> self.config.block_bits
            self.data_lane.invalidate(block)
            if self.ifetch_lane is not self.data_lane:
                self.ifetch_lane.invalidate(block)
            return "writeback"
        self.demand_misses += 1
        is_ifetch = kind == EV_IFETCH_MISS
        if is_ifetch:
            self.ifetch_misses += 1
        block = addr >> self.config.block_bits
        lane = self.ifetch_lane if is_ifetch else self.data_lane
        result = lane.handle_miss(addr, block)
        if result == "hit":
            self.stream_hits += 1
        elif result == "in_flight":
            self.in_flight_matches += 1
        return result

    def run(self, addrs: Sequence[int], kinds: Sequence[int]) -> Dict[str, object]:
        """Consume a miss-event stream; returns the final counters."""
        outcomes = []
        for addr, kind in zip(addrs, kinds):
            outcomes.append(self.handle_event(addr, kind))
        stats = self.finalize()
        stats["outcomes"] = outcomes
        return stats

    def finalize(self) -> Dict[str, object]:
        lanes = [self.data_lane]
        if self.ifetch_lane is not self.data_lane:
            lanes.append(self.ifetch_lane)
        totals = {
            "demand_misses": self.demand_misses,
            "stream_hits": self.stream_hits,
            "in_flight_matches": self.in_flight_matches,
            "ifetch_misses": self.ifetch_misses,
            "writebacks": self.writebacks,
            "prefetches_issued": 0,
            "prefetches_used": 0,
            "allocations": 0,
            "invalidations": 0,
            "unit_filter_hits": 0,
            "unit_filter_misses": 0,
            "detector_hits": 0,
        }
        hits_by_bucket = {bucket: 0 for bucket in _BUCKETS}
        streams_by_bucket = {bucket: 0 for bucket in _BUCKETS}
        zero_length = 0
        for lane in lanes:
            lane.finalize()
            totals["prefetches_issued"] += lane.prefetches_issued
            totals["prefetches_used"] += lane.prefetches_used
            totals["allocations"] += lane.allocations
            totals["invalidations"] += lane.invalidations
            totals["unit_filter_hits"] += lane.unit_hits
            totals["unit_filter_misses"] += lane.unit_misses
            totals["detector_hits"] += lane.detector_hits
            for bucket in _BUCKETS:
                hits_by_bucket[bucket] += lane.hits_by_bucket[bucket]
                streams_by_bucket[bucket] += lane.streams_by_bucket[bucket]
            zero_length += lane.zero_length_streams
        totals["lengths"] = {
            "hits_by_bucket": hits_by_bucket,
            "streams_by_bucket": streams_by_bucket,
            "zero_length_streams": zero_length,
        }
        # Bandwidth accounting (Table 2): EB relative to demand misses.
        useless = totals["prefetches_issued"] - totals["prefetches_used"]
        misses = totals["demand_misses"]
        totals["useless_prefetches"] = useless
        totals["eb_measured"] = 100.0 * useless / misses if misses else 0.0
        totals["eb_estimate"] = (
            100.0 * totals["allocations"] * self.config.depth / misses if misses else 0.0
        )
        return totals
