"""Tests for repro.analytic.profile and repro.analytic.model: the
single-pass stack-distance profiler and its fully-associative hit-rate
evaluators, and the same kernel run per set
(:func:`repro.caches.sampling.lru_results`) for set-associative LRU."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analytic import (
    PROFILE_BLOCK_SIZES,
    LocalityProfile,
    fa_hit_count,
    fa_hit_curve,
    fa_hit_rate,
    profile_miss_trace,
)
from repro.caches.cache import CacheConfig, MissEventKind, MissTrace
from repro.caches.sampling import SamplingPlan, l2_ladder, lru_results
from repro.caches.secondary import candidate_configs, simulate_secondary
from repro.sim.compare import match_ladder


def exact_rate(trace, config):
    """The stack-distance kernel's hit rate for one config, every set."""
    return lru_results(trace, [config], SamplingPlan(1))[config].local_hit_rate


def make_trace(addrs, kinds=None, block_bits=6):
    addrs = np.asarray(addrs, dtype=np.int64)
    if kinds is None:
        kinds = np.full(len(addrs), int(MissEventKind.READ_MISS), dtype=np.uint8)
    else:
        kinds = np.asarray(kinds, dtype=np.uint8)
    return MissTrace(addrs, kinds, block_bits, None)


def random_trace(n=2000, n_blocks=96, write_frac=0.25, wb_frac=0.1, seed=11):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, n_blocks, size=n) << 6).astype(np.int64)
    kinds = np.full(n, int(MissEventKind.READ_MISS), dtype=np.uint8)
    draw = rng.random(n)
    kinds[draw < write_frac] = int(MissEventKind.WRITE_MISS)
    kinds[draw > 1.0 - wb_frac] = int(MissEventKind.WRITEBACK)
    return MissTrace(addrs, kinds, 6, None)


def fa_config(capacity_blocks, block_size):
    return CacheConfig(
        capacity=capacity_blocks * block_size,
        assoc=capacity_blocks,
        block_size=block_size,
        policy="lru",
    )


class TestEdgeCases:
    def test_zero_length_trace(self):
        profiles = profile_miss_trace(make_trace([]))
        for bs in PROFILE_BLOCK_SIZES:
            profile = profiles[bs]
            assert profile.demand_accesses == 0
            assert profile.unique_blocks == 0
            assert profile.writebacks == 0
            assert fa_hit_rate(profile, bs) == 0.0  # pinned, not NaN

    def test_single_block_trace(self):
        # Same block five times: one cold read, four distance-0 hits.
        profiles = profile_miss_trace(make_trace([0x1000] * 5))
        profile = profiles[64]
        assert profile.cold_reads == 1
        assert profile.read_hist.tolist() == [4]
        assert profile.unique_blocks == 1
        assert profile.hits_within(1) == 4

    def test_write_only_trace(self):
        kinds = [int(MissEventKind.WRITE_MISS)] * 4
        profiles = profile_miss_trace(make_trace([0, 64, 0, 64], kinds))
        profile = profiles[64]
        assert profile.cold_writes == 2
        assert profile.cold_reads == 0
        assert int(profile.read_hist.sum()) == 0
        assert profile.write_hist.tolist() == [0, 2]  # both reuses at distance 1

    def test_writebacks_counted_separately(self):
        kinds = [
            int(MissEventKind.READ_MISS),
            int(MissEventKind.WRITEBACK),
            int(MissEventKind.READ_MISS),
        ]
        profiles = profile_miss_trace(make_trace([0, 64, 0], kinds))
        profile = profiles[64]
        assert profile.writebacks == 1
        assert profile.demand_accesses == 2
        # The writeback installed block 1, so the reuse of block 0 sees it.
        assert profile.read_hist.tolist() == [0, 1]

    def test_writeback_refreshes_recency(self):
        # read A, read B, writeback A, read B: B's reuse distance is 1
        # (only A between), and A's writeback moved A above B? No — B was
        # touched after A's writeback?  Sequence: A(r) B(r) A(wb) B(r).
        # Between the two B reads only A intervenes -> distance 1.
        kinds = [
            int(MissEventKind.READ_MISS),
            int(MissEventKind.READ_MISS),
            int(MissEventKind.WRITEBACK),
            int(MissEventKind.READ_MISS),
        ]
        profiles = profile_miss_trace(make_trace([0, 64, 0, 64], kinds))
        assert profiles[64].read_hist.tolist() == [0, 1]

    def test_ifetch_counts_as_demand_read(self):
        kinds = [int(MissEventKind.IFETCH_MISS)] * 3
        profile = profile_miss_trace(make_trace([0, 0, 0], kinds))[64]
        assert profile.cold_reads == 1
        assert profile.read_hist.tolist() == [2]

    def test_block_size_consistency_64_vs_128(self):
        profiles = profile_miss_trace(random_trace())
        p64, p128 = profiles[64], profiles[128]
        # Coarsening merges blocks: never more unique 128B blocks than 64B.
        assert p128.unique_blocks <= p64.unique_blocks
        # Demand accesses are a property of the trace, not the granularity.
        assert p128.demand_accesses == p64.demand_accesses
        assert p128.writebacks == p64.writebacks
        # Coarser blocks cannot have more cold misses.
        assert (p128.cold_reads + p128.cold_writes) <= (p64.cold_reads + p64.cold_writes)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError):
            profile_miss_trace(random_trace(), block_sizes=(96,))

    def test_rejects_block_finer_than_trace(self):
        with pytest.raises(ValueError):
            profile_miss_trace(random_trace(), block_sizes=(32,))

    def test_profile_shape_validation(self):
        with pytest.raises(ValueError):
            LocalityProfile(
                block_size=64,
                read_hist=np.zeros(2, dtype=np.int64),
                write_hist=np.zeros(3, dtype=np.int64),
                cold_reads=0,
                cold_writes=0,
                writebacks=0,
                unique_blocks=0,
            )

    def test_hits_within_rejects_nonpositive(self):
        profile = profile_miss_trace(random_trace())[64]
        with pytest.raises(ValueError):
            profile.hits_within(0)


class TestFullyAssociativeExactness:
    """fa_hit_count must be bit-identical to simulating n_sets == 1."""

    @pytest.mark.parametrize("block_size", PROFILE_BLOCK_SIZES)
    @pytest.mark.parametrize("capacity_blocks", [1, 2, 4, 16, 64, 256])
    def test_matches_simulate_secondary(self, block_size, capacity_blocks):
        trace = random_trace()
        profile = profile_miss_trace(trace, block_sizes=(block_size,))[block_size]
        config = fa_config(capacity_blocks, block_size)
        result = simulate_secondary(trace, config)
        assert fa_hit_count(profile, config.capacity) == result.demand_hits
        assert profile.demand_accesses == result.demand_accesses
        assert profile.writebacks == result.writebacks_received

    def test_curve_monotone_nondecreasing(self):
        profile = profile_miss_trace(random_trace())[64]
        capacities = [64 * (1 << i) for i in range(10)]
        curve = fa_hit_curve(profile, capacities)
        rates = [curve[c] for c in capacities]
        assert rates == sorted(rates)

    def test_rejects_non_multiple_capacity(self):
        profile = profile_miss_trace(random_trace())[128]
        with pytest.raises(ValueError):
            fa_hit_count(profile, 192)
        with pytest.raises(ValueError):
            fa_hit_count(profile, 0)


class TestSetAssociativeEstimator:
    """Set-associative LRU needs no estimate: the stack-distance kernel
    run per set gives exact counts."""

    def test_exact_when_fully_associative(self):
        trace = random_trace()
        profile = profile_miss_trace(trace, block_sizes=(64,))[64]
        config = fa_config(16, 64)
        assert exact_rate(trace, config) == fa_hit_rate(profile, config.capacity)

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    def test_close_to_simulation(self, assoc):
        trace = random_trace(n=4000, n_blocks=160)
        config = CacheConfig(capacity=64 * 64, assoc=assoc, block_size=64, policy="lru")
        # Uniform-random traces put the most conflict misses into a set.
        assert lru_results(trace, [config], SamplingPlan(1))[config] == simulate_secondary(
            trace, config
        )

    def test_zero_demand_is_zero(self):
        kinds = [int(MissEventKind.WRITEBACK)] * 3
        trace = make_trace([0, 64, 128], kinds)
        config = CacheConfig(capacity=4096, assoc=2, block_size=64, policy="lru")
        assert exact_rate(trace, config) == 0.0
        assert lru_results(trace, [config], SamplingPlan(1))[config].writebacks_received == 3

    def test_rejects_non_lru(self):
        for config in (
            CacheConfig(capacity=4096, assoc=2, block_size=64, policy="random"),
            CacheConfig(capacity=4096, assoc=2, block_size=64, policy="lru",
                        write_allocate=False),
        ):
            with pytest.raises(ValueError, match="write-allocate LRU"):
                lru_results(random_trace(), [config], SamplingPlan(1))

    def test_best_estimate_reports_winning_config(self):
        trace = random_trace()
        ladder = l2_ladder(trace, [4096], SamplingPlan(1))
        target = SimpleNamespace(hit_rate=1.0)
        (point,) = match_ladder("t", 1.0, target, "streams", ladder, [4096]).l2_hit_rates
        winner = next(
            c for c in candidate_configs(4096)
            if (c.assoc, c.block_size) == (point.assoc, point.block_size)
        )
        assert point.size == 4096
        assert point.block_size in PROFILE_BLOCK_SIZES
        # The reported rate is attained by the reported config, and no
        # configuration of the size beats it.
        assert point.hit_rate == ladder[winner].local_hit_rate
        assert point.hit_rate == max(r.local_hit_rate for r in ladder.values())


class TestMattsonInclusion:
    def test_fa_not_upper_bound_for_set_assoc(self):
        """The known counterexample the screen's bound must survive:
        set partitioning can beat full associativity (A B C A, C=2)."""
        trace = make_trace([0, 64, 192, 0])  # A B C A; B, C share the odd set
        profile = profile_miss_trace(trace, block_sizes=(64,))[64]
        fa = fa_hit_rate(profile, 2 * 64)  # A evicted by B,C: 0 hits
        config = CacheConfig(capacity=2 * 64, assoc=1, block_size=64, policy="lru")
        direct = simulate_secondary(trace, config).local_hit_rate
        assert fa == 0.0
        assert direct > fa  # B and C fight over the other set; A survives


class TestBinomialEdges:
    """The degenerate corners of the per-set kernel: one set, one way."""

    def test_n_sets_one_equals_fa_mattson(self):
        # The kernel's fully-associative corner is the exact FA curve.
        trace = random_trace(n=3000, n_blocks=120)
        profile = profile_miss_trace(trace, block_sizes=(64,))[64]
        for blocks in (4, 16, 64):
            config = fa_config(blocks, 64)
            assert exact_rate(trace, config) == fa_hit_rate(profile, config.capacity)

    def test_direct_mapped_single_set_cache(self):
        # capacity == one block: n_sets == 1 AND assoc == 1 — both
        # degenerate paths at once; hits require distance exactly 0.
        trace = make_trace([0, 0, 64, 64, 0])
        config = CacheConfig(capacity=64, assoc=1, block_size=64, policy="lru")
        assert exact_rate(trace, config) == pytest.approx(2 / 5)
