"""Mattson stack-distance cases on the analytic profiler
(:func:`repro.analytic.profile.profile_miss_trace`), which yields the
fully-associative LRU hit count of every capacity from one pass."""

import numpy as np
import pytest

from repro.analytic.model import fa_hit_rate
from repro.analytic.profile import profile_miss_trace
from repro.caches.cache import Cache, CacheConfig, MissTrace
from repro.trace.events import Trace


def _profile(blocks, kinds=None):
    """The 64-byte-block profile of a miss trace touching ``blocks``
    (demand reads unless ``kinds`` says otherwise)."""
    addrs = np.asarray(blocks, dtype=np.int64) * 64
    if kinds is None:
        kinds = np.zeros(len(addrs), dtype=np.uint8)
    trace = MissTrace(addrs, np.asarray(kinds, dtype=np.uint8), 6)
    return profile_miss_trace(trace, (64,))[64]


class TestStackDistances:
    def test_cold_accesses_are_infinite(self):
        profile = _profile([1, 2, 3])
        assert profile.cold_reads == 3
        assert profile.demand_accesses == 3
        assert profile.demand_hist.sum() == 0

    def test_immediate_reuse_distance_zero(self):
        profile = _profile([7, 7])
        assert profile.demand_hist[0] == 1

    def test_intervening_blocks_counted_once(self):
        # a b b a: between the two a's, only one distinct block (b).
        profile = _profile([1, 2, 2, 1])
        assert profile.demand_hist[1] == 1  # the second a
        assert profile.demand_hist[0] == 1  # the second b

    def test_cyclic_sweep_distance(self):
        # Sweeping k distinct blocks repeatedly: every reuse has
        # distance k-1.
        k = 8
        profile = _profile(list(range(k)) * 3)
        assert profile.demand_hist[k - 1] == 2 * k
        assert profile.cold_reads == k

    def test_empty(self):
        profile = _profile([])
        assert profile.demand_accesses == 0
        assert fa_hit_rate(profile, 4 * 64) == 0.0


class TestMissCurve:
    def test_lru_inclusion_monotone(self):
        rng = np.random.default_rng(0)
        profile = _profile(rng.integers(0, 64, size=2000))
        sizes = [1, 2, 4, 8, 16, 32, 64, 128]
        misses = [profile.demand_accesses - profile.hits_within(s) for s in sizes]
        assert misses == sorted(misses, reverse=True)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            _profile([1]).hits_within(0)

    def test_reuse_fraction(self):
        profile = _profile(list(range(8)) * 2)
        assert fa_hit_rate(profile, 8 * 64) == pytest.approx(0.5)
        assert fa_hit_rate(profile, 4 * 64) == pytest.approx(0.0)

    def test_matches_fully_associative_lru_simulation_exactly(self):
        """Mattson's theorem, checked against the simulator."""
        rng = np.random.default_rng(3)
        # A blend of sweeps and random reuse over 128 blocks.
        blocks = np.concatenate(
            [
                np.arange(128),
                rng.integers(0, 128, size=1500),
                np.arange(64),
            ]
        )
        profile = _profile(blocks)
        for capacity_blocks in (4, 16, 64, 256):
            cache = Cache(
                CacheConfig(
                    capacity=capacity_blocks * 64,
                    assoc=capacity_blocks,  # fully associative
                    block_size=64,
                    policy="lru",
                )
            )
            cache.simulate(Trace.uniform(blocks.astype(np.int64) * 64))
            misses = profile.demand_accesses - profile.hits_within(capacity_blocks)
            assert cache.stats.misses == misses, capacity_blocks


class TestProfileBlockStream:
    def test_profiles_demand_misses_only(self):
        # The middle event is a write-back: it is not a demand access.
        profile = _profile([0, 1, 0], kinds=[0, 2, 0])
        assert profile.demand_accesses == 2
        assert profile.writebacks == 1

    def test_writebacks_update_recency_but_are_not_counted(self):
        profile = _profile([0, 1, 0], kinds=[0, 2, 0])
        # The write-back to block 1 sat between the two touches of
        # block 0, giving distance 1.
        assert profile.demand_hist[1] == 1

    def test_writeback_installs_enable_hits(self):
        # demand 5, wb 9, demand 9: the write-back installs block 9, so
        # the second demand is an immediate reuse, not a cold miss.
        profile = _profile([5, 9, 9], kinds=[0, 2, 0])
        assert profile.demand_hist[0] == 1
        assert profile.cold_reads == 1

    def test_real_workload_l2_story(self):
        """The miss stream of a one-pass sweep has no reuse any L2 can
        catch; a benchmark with revisits does."""
        from repro.sim.runner import MissTraceCache

        cache = MissTraceCache()
        capacity = (1 << 14) * 64
        sweep_mt, _ = cache.get("sweep", scale=0.25)
        assert fa_hit_rate(profile_miss_trace(sweep_mt, (64,))[64], capacity) < 0.01

        mdg_mt, _ = cache.get("mdg")
        # mdg revisits its arrays every step: a large L2 catches reuse.
        assert fa_hit_rate(profile_miss_trace(mdg_mt, (64,))[64], capacity) > 0.3
