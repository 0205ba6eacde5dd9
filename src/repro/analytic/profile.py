"""Single-pass locality profiling of L1 miss traces.

One pass over a :class:`~repro.caches.cache.MissTrace` yields, per L2
block size, the exact LRU stack-distance histogram of the demand stream —
split by read/write — plus the cold-access and write-back counts.  From a
:class:`LocalityProfile` the hit rate of *every* fully-associative LRU
capacity follows by a prefix sum (Mattson's result), and the
set-associative estimator in :mod:`repro.analytic.model` extends it to
the paper's whole L2 grid without further simulation.

Semantics match :func:`~repro.caches.secondary.simulate_secondary`
exactly: demand fetches (read/write/ifetch misses) update recency and are
counted; L1 write-backs update recency — they install blocks in a
write-allocate L2 — but are not counted toward the local hit rate.  The
fully-associative evaluation is therefore bit-identical to simulating an
``n_sets == 1`` LRU cache over the same trace (the differ stage in
:mod:`repro.check.differ` enforces this against the golden oracle).

The pass is the standard O(n log n) Fenwick-tree algorithm, inlined so
one traversal fills the read and write histograms and the cold/write-back
counters together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.caches.cache import MissEventKind, MissTrace
from repro.mem.address import is_power_of_two, log2_int

__all__ = [
    "PROFILE_BLOCK_SIZES",
    "PROFILE_BUCKETS",
    "LocalityProfile",
    "profile_miss_trace",
]

#: The L2 block sizes of the paper's Table 4 grid; the default profiling
#: granularities.
PROFILE_BLOCK_SIZES: Tuple[int, ...] = (64, 128)

#: Index-bucket count for the combined-locality arrays: block address
#: modulo this many buckets.  A power of two at least as large as any
#: swept set count, so exact per-set footprints/demand shares fall out of
#: a reshape-sum for every ``n_sets <= PROFILE_BUCKETS`` (set index =
#: bucket mod n_sets when both are powers of two).
PROFILE_BUCKETS = 1024


@dataclass(frozen=True)
class LocalityProfile:
    """Exact stack-distance summary of one miss trace at one block size.

    Attributes:
        block_size: profiling granularity in bytes (power of two).
        read_hist: ``read_hist[d]`` counts demand reads (including
            instruction fetches) whose stack distance is exactly ``d``
            blocks; cold reads are *not* in the histogram.
        write_hist: same for demand write misses.
        cold_reads: first-touch demand reads (infinite distance).
        cold_writes: first-touch demand write misses.
        writebacks: L1 write-backs absorbed (recency/install only).
        unique_blocks: distinct blocks touched by any event.
        bucket_footprint: ``bucket_footprint[i]`` counts distinct blocks
            whose index ``block % PROFILE_BUCKETS == i`` (combined
            locality: the footprint's spread over set indices).  ``None``
            on profiles predating the combined-locality estimator.
        bucket_demand: demand events per index bucket, same keying.
    """

    block_size: int
    read_hist: np.ndarray
    write_hist: np.ndarray
    cold_reads: int
    cold_writes: int
    writebacks: int
    unique_blocks: int
    bucket_footprint: Optional[np.ndarray] = None
    bucket_demand: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not is_power_of_two(self.block_size):
            raise ValueError(f"block_size must be a power of two, got {self.block_size}")
        if self.read_hist.shape != self.write_hist.shape:
            raise ValueError(
                f"histogram shapes differ: {self.read_hist.shape} vs {self.write_hist.shape}"
            )

    @property
    def block_bits(self) -> int:
        """Block-offset bits of the profiling granularity."""
        return log2_int(self.block_size)

    @property
    def demand_accesses(self) -> int:
        """Total demand events (the local-hit-rate denominator)."""
        return (
            int(self.read_hist.sum())
            + int(self.write_hist.sum())
            + self.cold_reads
            + self.cold_writes
        )

    @property
    def demand_hist(self) -> np.ndarray:
        """Combined read+write stack-distance histogram."""
        return self.read_hist + self.write_hist

    def hits_within(self, capacity_blocks: int) -> int:
        """Demand accesses with stack distance below ``capacity_blocks``.

        By Mattson's theorem this is the exact demand-hit count of a
        fully-associative LRU cache holding ``capacity_blocks`` blocks.

        Raises:
            ValueError: for non-positive capacities.
        """
        if capacity_blocks <= 0:
            raise ValueError(f"capacity_blocks must be positive, got {capacity_blocks}")
        return int(self.demand_hist[:capacity_blocks].sum())


def profile_miss_trace(
    miss_trace: MissTrace,
    block_sizes: Sequence[int] = PROFILE_BLOCK_SIZES,
) -> Dict[int, LocalityProfile]:
    """Profile a miss trace at each requested block size.

    One Fenwick-tree pass per block size; the trace is traversed with the
    write-back install/recency semantics of
    :func:`~repro.caches.secondary.simulate_secondary` so the resulting
    fully-associative evaluation is exact (see the module docstring).

    Raises:
        ValueError: when a block size is below the trace's own block
            granularity (the trace cannot be refined, only coarsened).
    """
    profiles = {}
    for block_size in block_sizes:
        if not is_power_of_two(block_size):
            raise ValueError(f"block_size must be a power of two, got {block_size}")
        if log2_int(block_size) < miss_trace.block_bits:
            raise ValueError(
                f"cannot profile at {block_size}B: trace granularity is "
                f"{1 << miss_trace.block_bits}B"
            )
        profiles[block_size] = _profile_one(miss_trace, block_size)
    return profiles


def _profile_one(miss_trace: MissTrace, block_size: int) -> LocalityProfile:
    """One single-pass stack-distance profile at ``block_size``."""
    bits = log2_int(block_size)
    addrs = miss_trace.addrs.tolist()
    kinds = miss_trace.kinds.tolist()
    n = len(addrs)
    wb_kind = int(MissEventKind.WRITEBACK)
    write_kind = int(MissEventKind.WRITE_MISS)

    # Fenwick tree over trace positions, inlined for the hot loop: a 1 at
    # position p means p is the most recent access of some block.
    tree = [0] * (n + 1)

    def _add(index: int, delta: int) -> None:
        index += 1
        while index <= n:
            tree[index] += delta
            index += index & -index

    def _prefix(index: int) -> int:
        index += 1
        total = 0
        while index > 0:
            total += tree[index]
            index -= index & -index
        return total

    last_position: Dict[int, int] = {}
    read_counts: Dict[int, int] = {}
    write_counts: Dict[int, int] = {}
    cold_reads = 0
    cold_writes = 0
    writebacks = 0
    bucket_mask = PROFILE_BUCKETS - 1
    bucket_demand = [0] * PROFILE_BUCKETS
    for position, (addr, kind) in enumerate(zip(addrs, kinds)):
        block = addr >> bits
        previous = last_position.get(block)
        if kind == wb_kind:
            writebacks += 1
        elif previous is None:
            if kind == write_kind:
                cold_writes += 1
            else:
                cold_reads += 1
        else:
            # Distinct blocks touched strictly between the two accesses:
            # most-recent markers in (previous, position).
            distance = _prefix(position - 1) - _prefix(previous)
            counts = write_counts if kind == write_kind else read_counts
            counts[distance] = counts.get(distance, 0) + 1
        if kind != wb_kind:
            bucket_demand[block & bucket_mask] += 1
        if previous is not None:
            _add(previous, -1)
        _add(position, +1)
        last_position[block] = position

    bucket_footprint = [0] * PROFILE_BUCKETS
    for block in last_position:
        bucket_footprint[block & bucket_mask] += 1

    return LocalityProfile(
        block_size=block_size,
        read_hist=_counts_to_array(read_counts, write_counts.keys()),
        write_hist=_counts_to_array(write_counts, read_counts.keys()),
        cold_reads=cold_reads,
        cold_writes=cold_writes,
        writebacks=writebacks,
        unique_blocks=len(last_position),
        bucket_footprint=np.array(bucket_footprint, dtype=np.int64),
        bucket_demand=np.array(bucket_demand, dtype=np.int64),
    )


def _counts_to_array(counts: Dict[int, int], other_keys: Iterable[int]) -> np.ndarray:
    """Densify a distance->count dict, padded to the paired histogram."""
    max_distance = max(list(counts) + list(other_keys), default=-1)
    hist = np.zeros(max_distance + 1, dtype=np.int64)
    for distance, count in counts.items():
        hist[distance] = count
    return hist
