"""Set sampling (Kessler, Hill & Wood), used by the paper for Table 4.

Simulating a multi-megabyte L2 over a long miss trace is expensive; set
sampling simulates only a deterministic subset of the cache's sets and
estimates the hit rate from the accesses that map to those sets.  Because
set mapping is a pure function of the block address, the sampled sets see
exactly the accesses the full cache's same sets would see, so per-set
behaviour is exact and only the cross-set mix is estimated.

:func:`l2_ladder` evaluates a whole ladder of LRU configurations at once:
one :func:`~repro.caches.secondary.lru_stack_distances` pass per (set
count, block size) serves every associativity at that set count, with
the same sampled-set mask as :func:`sampled_hit_rate`, so its results
are bit-identical to per-configuration simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.caches.cache import CacheConfig, MissEventKind, MissTrace
from repro.caches.secondary import (
    SecondaryResult,
    candidate_configs,
    lru_stack_distances,
    simulate_secondary,
)
from repro.check import invariants as _inv

__all__ = [
    "SamplingPlan",
    "sampled_hit_rate",
    "lru_results",
    "l2_ladder",
    "sampling_error_bound",
]

_WB = int(MissEventKind.WRITEBACK)


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample sets of a cache.

    Attributes:
        sample_every: keep sets whose index is a multiple of this.
    """

    sample_every: int = 16

    def __post_init__(self) -> None:
        if self.sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {self.sample_every}")

    def sets_sampled(self, n_sets: int) -> int:
        """Number of sets simulated for a cache with ``n_sets`` sets."""
        return (n_sets + self.sample_every - 1) // self.sample_every


def sample_factor(plan: SamplingPlan, n_sets: int) -> int:
    """The plan's factor, halved until at least 4 of ``n_sets`` sets stay."""
    sample_every = plan.sample_every
    while sample_every > 1 and n_sets // sample_every < 4:
        sample_every //= 2
    return sample_every


def sampled_hit_rate(
    miss_trace: MissTrace,
    config: CacheConfig,
    plan: SamplingPlan = SamplingPlan(),
) -> SecondaryResult:
    """Simulate ``config`` with set sampling.

    Falls back to full simulation when the cache has fewer sets than the
    sampling factor would leave meaningful (at least 4 sampled sets).
    This is the scalar :func:`~repro.caches.secondary.simulate_secondary`;
    :func:`lru_results` answers write-allocate LRU configurations in bulk
    with the same results.
    """
    return simulate_secondary(
        miss_trace, config, sample_every=sample_factor(plan, config.n_sets)
    )


def lru_results(
    miss_trace: MissTrace,
    configs: Iterable[CacheConfig],
    plan: SamplingPlan,
    force: bool = False,
) -> Dict[CacheConfig, SecondaryResult]:
    """:func:`sampled_hit_rate` of every config, one pass per set count.

    Configs sharing a (set count, block size) share one stack-distance
    pass over their sampled sets: a demand access hits A ways iff its
    per-set distance is below A, and write-backs enter the stack without
    being counted, as in :func:`~repro.caches.secondary.simulate_secondary`.
    Under ``REPRO_CHECK=1`` every config runs :func:`sampled_hit_rate`
    instead, so the scalar cache's invariants keep their coverage;
    ``force`` keeps the stack pass (the differ compares it even then).

    Raises:
        ValueError: for a config that is not a write-allocate LRU cache
            (the stack describes no other residency).
    """
    configs = list(configs)
    for config in configs:
        if config.policy != "lru" or not config.write_allocate:
            raise ValueError(
                f"the stack-distance ladder needs write-allocate LRU, got {config}"
            )
    if _inv.ENABLED and not force:
        return {config: sampled_hit_rate(miss_trace, config, plan) for config in configs}
    groups: Dict[Tuple[int, int], List[CacheConfig]] = {}
    for config in configs:
        groups.setdefault((config.n_sets, config.block_bits), []).append(config)
    results: Dict[CacheConfig, SecondaryResult] = {}
    for (n_sets, block_bits), members in groups.items():
        set_mask = n_sets - 1
        sample_every = sample_factor(plan, n_sets)
        blocks = miss_trace.addrs >> block_bits
        kinds = miss_trace.kinds
        if sample_every > 1:
            sampled = ((blocks & set_mask) % sample_every) == 0
            blocks, kinds = blocks[sampled], kinds[sampled]
        dist = lru_stack_distances(blocks, set_mask)[kinds != _WB]
        reuse = np.sort(dist[dist >= 0])
        for config in members:
            results[config] = SecondaryResult(
                config=config,
                demand_accesses=int(dist.shape[0]),
                demand_hits=int(np.searchsorted(reuse, config.assoc)),
                writebacks_received=int(kinds.shape[0] - dist.shape[0]),
                sampled_sets=(n_sets + sample_every - 1) // sample_every,
            )
    return {config: results[config] for config in configs}


def l2_ladder(
    miss_trace: MissTrace,
    sizes: Sequence[int],
    sampling: SamplingPlan,
    force: bool = False,
) -> Dict[CacheConfig, SecondaryResult]:
    """Every :func:`~repro.caches.secondary.candidate_configs` config of
    every size, ascending by size, through :func:`lru_results`."""
    return lru_results(
        miss_trace,
        [config for size in sorted(sizes) for config in candidate_configs(size)],
        sampling,
        force=force,
    )


def sampling_error_bound(
    full: Sequence[float],
    sampled: Sequence[float],
) -> float:
    """Maximum absolute hit-rate discrepancy between paired estimates.

    A validation helper for tests and EXPERIMENTS.md: given hit rates from
    full and sampled simulation of the same (trace, config) pairs, return
    the worst-case absolute difference.
    """
    if len(full) != len(sampled):
        raise ValueError("full and sampled sequences must pair up")
    if not full:
        return 0.0
    return float(np.max(np.abs(np.asarray(full) - np.asarray(sampled))))
