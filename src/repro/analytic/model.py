"""Hit-rate evaluation from a locality profile.

Fully-associative LRU is exact by Mattson's theorem: a demand access
hits in a C-block cache iff its stack distance is below C, so a prefix
sum over a :class:`~repro.analytic.profile.LocalityProfile`'s histogram
gives the hit count of every capacity at once, bit-identical to
simulating the ``n_sets == 1`` cache.  Set-associative configurations
need no estimate: the same stack-distance kernel run per set
(:func:`~repro.caches.sampling.l2_ladder`) gives their exact counts.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analytic.profile import LocalityProfile

__all__ = ["fa_hit_count", "fa_hit_rate", "fa_hit_curve"]


def fa_hit_count(profile: LocalityProfile, capacity_bytes: int) -> int:
    """Exact fully-associative LRU demand-hit count at a capacity.

    Raises:
        ValueError: for capacities that are not a positive multiple of
            the profile's block size.
    """
    if capacity_bytes <= 0 or capacity_bytes % profile.block_size:
        raise ValueError(
            f"capacity {capacity_bytes} is not a positive multiple of "
            f"block size {profile.block_size}"
        )
    return profile.hits_within(capacity_bytes // profile.block_size)


def fa_hit_rate(profile: LocalityProfile, capacity_bytes: int) -> float:
    """Exact fully-associative LRU local hit rate at a capacity.

    0.0 when the profile has no demand accesses, mirroring
    :attr:`~repro.caches.secondary.SecondaryResult.local_hit_rate`.
    """
    demand = profile.demand_accesses
    if not demand:
        return 0.0
    return fa_hit_count(profile, capacity_bytes) / demand


def fa_hit_curve(
    profile: LocalityProfile, capacities: Sequence[int]
) -> Dict[int, float]:
    """Exact fully-associative hit rate at each capacity (bytes)."""
    return {capacity: fa_hit_rate(profile, capacity) for capacity in capacities}
