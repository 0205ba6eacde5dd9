"""Secondary (L2) cache evaluation over an L1 miss stream (paper Section 8).

The paper asks: what is the minimum secondary cache size whose *local* hit
rate (fraction of on-chip misses that hit in the L2) matches the stream
buffer hit rate?  It considers associativities one to four and block sizes
of 64 and 128 bytes, i.e. the best configuration at each size.

The L2 consumes the L1's :class:`~repro.caches.cache.MissTrace`: demand
fetches look up (and on miss allocate in) the L2 and count toward the local
hit rate; L1 write-backs update the L2 (write-allocate) but do not count.

:func:`lru_stack_distances` is the one-pass alternative for LRU: by the
inclusion property (Mattson), an access hits an A-way LRU set iff fewer
than A distinct blocks of its set were touched since the previous access
to its block, so one pass per set count answers every associativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.caches.cache import Cache, CacheConfig, MissEventKind, MissTrace

__all__ = [
    "SecondaryResult",
    "simulate_secondary",
    "candidate_configs",
    "best_hit_rate_at_size",
    "lru_stack_distances",
    "COLD",
    "PAPER_L2_SIZES",
    "PAPER_L2_ASSOCS",
    "PAPER_L2_BLOCKS",
]

# The size ladder of Table 4 (64 KB ... 4 MB).
PAPER_L2_SIZES: Tuple[int, ...] = tuple(64 * 1024 * (1 << i) for i in range(7))
PAPER_L2_ASSOCS: Tuple[int, ...] = (1, 2, 4)
PAPER_L2_BLOCKS: Tuple[int, ...] = (64, 128)

#: :func:`lru_stack_distances` of a first touch (no earlier access).
COLD = -1


@dataclass(frozen=True)
class SecondaryResult:
    """Outcome of simulating one L2 configuration.

    Attributes:
        config: the simulated configuration.
        demand_accesses: L1 demand misses presented to the L2.
        demand_hits: those that hit in the L2.
        writebacks_received: L1 write-backs absorbed.
        sampled_sets: number of sets actually simulated (< config.n_sets
            when set sampling was used).
    """

    config: CacheConfig
    demand_accesses: int
    demand_hits: int
    writebacks_received: int
    sampled_sets: int

    @property
    def local_hit_rate(self) -> float:
        """Demand hits / demand accesses (0.0 with no demand accesses)."""
        if not self.demand_accesses:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def sampled_fraction(self) -> float:
        """Fraction of the cache's sets actually simulated."""
        return self.sampled_sets / self.config.n_sets

    def hit_rate_halfwidth(self, z: float = 3.0) -> float:
        """Sampling-induced confidence half-width of the hit rate.

        A binomial normal-approximation band: the sampled sets see an
        unbiased subset of the demand stream, so the estimate's standard
        error is ``sqrt(p * (1-p) / n)`` over the ``n`` demand accesses
        that mapped to sampled sets.  ``z`` widens it to the desired
        confidence (3 sigma by default).

        0.0 when every set was simulated — the measurement is exact; 1.0
        when sampling left no demand accesses at all (no information).
        """
        if self.sampled_sets >= self.config.n_sets:
            return 0.0
        if not self.demand_accesses:
            return 1.0
        p = self.local_hit_rate
        return z * math.sqrt(p * (1.0 - p) / self.demand_accesses)


def simulate_secondary(
    miss_trace: MissTrace,
    config: CacheConfig,
    sample_every: int = 1,
) -> SecondaryResult:
    """Simulate an L2 over ``miss_trace``.

    Args:
        miss_trace: the L1's fetch/write-back stream.
        config: L2 geometry/policy.
        sample_every: set-sampling factor — only accesses mapping to sets
            whose index is a multiple of ``sample_every`` are simulated
            (paper's Table 4 cites Kessler/Hill/Wood set sampling).  1
            simulates every set.

    Returns:
        A :class:`SecondaryResult` whose hit rate estimates the full
        cache's local hit rate.
    """
    if sample_every <= 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    cache = Cache(config)
    block_bits = config.block_bits
    set_mask = config.n_sets - 1
    wb_kind = int(MissEventKind.WRITEBACK)
    write_miss_kind = int(MissEventKind.WRITE_MISS)
    demand = 0
    hits = 0
    writebacks = 0
    access_block = cache.access_block
    sampling = sample_every > 1
    for addr, kind in zip(miss_trace.addrs.tolist(), miss_trace.kinds.tolist()):
        block = addr >> block_bits
        if sampling and (block & set_mask) % sample_every:
            continue
        if kind == wb_kind:
            writebacks += 1
            access_block(block, True)
            continue
        demand += 1
        hit, _ = access_block(block, kind == write_miss_kind)
        if hit:
            hits += 1
    n_sets = config.n_sets
    sampled_sets = (n_sets + sample_every - 1) // sample_every if sampling else n_sets
    return SecondaryResult(
        config=config,
        demand_accesses=demand,
        demand_hits=hits,
        writebacks_received=writebacks,
        sampled_sets=sampled_sets,
    )


def candidate_configs(
    size: int,
    assocs: Sequence[int] = PAPER_L2_ASSOCS,
    block_sizes: Sequence[int] = PAPER_L2_BLOCKS,
    policy: str = "lru",
) -> List[CacheConfig]:
    """All L2 configurations the paper considers at one capacity."""
    configs = []
    for assoc in assocs:
        for block_size in block_sizes:
            configs.append(
                CacheConfig(
                    capacity=size,
                    assoc=assoc,
                    block_size=block_size,
                    policy=policy,
                    write_back=True,
                    write_allocate=True,
                )
            )
    return configs


def best_hit_rate_at_size(
    miss_trace: MissTrace,
    size: int,
    assocs: Sequence[int] = PAPER_L2_ASSOCS,
    block_sizes: Sequence[int] = PAPER_L2_BLOCKS,
    sample_every: int = 1,
) -> SecondaryResult:
    """Best local hit rate over the paper's configuration grid at ``size``."""
    best: Optional[SecondaryResult] = None
    for config in candidate_configs(size, assocs=assocs, block_sizes=block_sizes):
        result = simulate_secondary(miss_trace, config, sample_every=sample_every)
        if best is None or result.local_hit_rate > best.local_hit_rate:
            best = result
    assert best is not None  # candidate_configs never returns an empty grid
    return best


def lru_stack_distances(blocks: np.ndarray, set_mask: int = 0) -> np.ndarray:
    """Per-set LRU stack distance of every access of a block stream.

    ``dist[i]`` counts the distinct blocks of the same set (``block &
    set_mask``) touched since the previous access to ``blocks[i]``, or is
    :data:`COLD` on a first touch.  An access hits an A-way LRU set iff
    ``0 <= dist[i] < A``; ``set_mask`` 0 is the fully-associative stack.

    The stream is grouped stably by set and adjacent same-block repeats
    (distance 0 at every associativity, the set-local collapse of
    :mod:`repro.sim.vector`) are dropped.  For each kept access with
    ``prev`` the position of the previous access to its block, the
    accesses between the two that are the first of their block since
    ``prev`` are exactly those ``q`` with ``prev[q] < prev[i]``, so

        dist(i) = #{q < i : prev[q] < prev[i]} - prev[i] - 1

    (every ``q <= prev[i]`` qualifies).  That count is done by level-wise
    merge counting with ``np.searchsorted``: O(log n) array passes, no
    per-access Python.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    n = blocks.shape[0]
    dist = np.zeros(n, dtype=np.int64)
    if not n:
        return dist
    order = None
    if set_mask:
        sets = blocks & set_mask
        if set_mask <= 0xFFFF:
            # numpy's stable sort of 16-bit keys is a radix sort.
            sets = sets.astype(np.uint16)
        order = np.argsort(sets, kind="stable")
        blocks = blocks[order]
    kept = np.ones(n, dtype=bool)
    np.not_equal(blocks[1:], blocks[:-1], out=kept[1:])
    kept_blocks = blocks[kept]
    by_block = np.argsort(kept_blocks, kind="stable")
    same = kept_blocks[by_block[1:]] == kept_blocks[by_block[:-1]]
    prev = np.full(kept_blocks.shape[0], -1, dtype=np.int64)
    prev[by_block[1:][same]] = by_block[:-1][same]
    kept_dist = _count_earlier_smaller(prev) - prev - 1
    kept_dist[prev < 0] = COLD
    dist[kept] = kept_dist
    if order is not None:
        dist[order] = dist.copy()
    return dist


def _count_earlier_smaller(values: np.ndarray) -> np.ndarray:
    """``#{q < i : values[q] < values[i]}`` for every ``i``.

    Bottom-up merge counting: at the level of width ``w`` every element
    of an odd ``w``-block counts the smaller elements of the even block
    before it with one ``searchsorted`` over the blocks' sorted contents,
    keyed by ``block * span + value`` so the whole level is one sorted
    array.  Each pair ``q < i`` meets in exactly one level.
    """
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    base = int(values.min())
    values = values - base
    span = int(values.max()) + 1
    position = np.arange(n, dtype=np.int64)
    keys = values  # sorted within every block of the current width
    level = 0
    while (1 << level) < n:
        block = position >> level
        right = np.flatnonzero(block & 1)
        left = block[right] - 1
        counts[right] += np.searchsorted(
            block * span + keys, left * span + values[right]
        ) - (left << level)
        pair = (position >> (level + 1)) * span
        keys = np.sort(pair + keys, kind="stable") - pair
        level += 1
    return counts
