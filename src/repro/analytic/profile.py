"""Single-pass locality profiling of L1 miss traces.

One pass over a :class:`~repro.caches.cache.MissTrace` yields, per L2
block size, the exact LRU stack-distance histogram of the demand stream —
split by read/write — plus the cold-access and write-back counts.  From a
:class:`LocalityProfile` the hit rate of *every* fully-associative LRU
capacity follows by a prefix sum (Mattson's result).

Semantics match :func:`~repro.caches.secondary.simulate_secondary`
exactly: demand fetches (read/write/ifetch misses) update recency and are
counted; L1 write-backs update recency — they install blocks in a
write-allocate L2 — but are not counted toward the local hit rate.  The
fully-associative evaluation is therefore bit-identical to simulating an
``n_sets == 1`` LRU cache over the same trace (the differ stage in
:mod:`repro.check.differ` enforces this against the golden oracle).

The pass is :func:`~repro.caches.secondary.lru_stack_distances` with no
set mask (the fully-associative stack); the histograms, cold and
write-back counts and index-bucket arrays are array reductions over its
per-access distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.caches.cache import MissEventKind, MissTrace
from repro.caches.secondary import COLD, lru_stack_distances
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

#: Index-bucket count for the footprint/demand arrays: block address
#: modulo this many buckets.  A power of two at least as large as any
#: swept set count, so per-set footprints/demand shares fall out of a
#: reshape-sum for every ``n_sets <= PROFILE_BUCKETS`` (set index =
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
            whose index ``block % PROFILE_BUCKETS == i`` (the footprint's
            spread over set indices).  ``None`` on profiles stored before
            the bucket arrays existed.
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

    One stack-distance pass per block size; the trace is traversed with the
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
    blocks = miss_trace.addrs >> log2_int(block_size)
    kinds = miss_trace.kinds
    dist = lru_stack_distances(blocks)
    cold = dist == COLD
    writeback = kinds == int(MissEventKind.WRITEBACK)
    write = kinds == int(MissEventKind.WRITE_MISS)
    read = ~writeback & ~write
    read_dist = dist[read & ~cold]
    write_dist = dist[write & ~cold]
    length = int(max(read_dist.max(initial=-1), write_dist.max(initial=-1))) + 1
    bucket_mask = PROFILE_BUCKETS - 1
    return LocalityProfile(
        block_size=block_size,
        read_hist=_histogram(read_dist, length),
        write_hist=_histogram(write_dist, length),
        cold_reads=int(np.count_nonzero(read & cold)),
        cold_writes=int(np.count_nonzero(write & cold)),
        writebacks=int(np.count_nonzero(writeback)),
        unique_blocks=int(np.count_nonzero(cold)),
        bucket_footprint=_histogram(blocks[cold] & bucket_mask, PROFILE_BUCKETS),
        bucket_demand=_histogram(blocks[~writeback] & bucket_mask, PROFILE_BUCKETS),
    )


def _histogram(values: np.ndarray, length: int) -> np.ndarray:
    """``np.bincount`` of non-negative ``values`` over ``length`` bins."""
    return np.bincount(values, minlength=length).astype(np.int64, copy=False)
