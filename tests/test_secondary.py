"""Tests for repro.caches.secondary and repro.caches.sampling."""

import numpy as np
import pytest

from repro.caches.cache import Cache, CacheConfig, MissEventKind, MissTrace
from repro.caches import sampling
from repro.caches.sampling import (
    SamplingPlan,
    l2_ladder,
    lru_results,
    sampled_hit_rate,
    sampling_error_bound,
)
from repro.caches.secondary import (
    COLD,
    PAPER_L2_SIZES,
    best_hit_rate_at_size,
    candidate_configs,
    lru_stack_distances,
    simulate_secondary,
)
from repro.check import invariants
from repro.trace.events import Trace


def make_miss_trace(blocks, kinds=None):
    blocks = np.asarray(blocks, dtype=np.int64)
    if kinds is None:
        kinds = np.zeros(blocks.shape[0], dtype=np.uint8)
    return MissTrace(blocks * 64, np.asarray(kinds, dtype=np.uint8), 6)


class TestSimulateSecondary:
    def test_repeated_misses_hit_l2(self):
        # L1 misses the same blocks twice; L2 catches the second round.
        mt = make_miss_trace(list(range(100)) + list(range(100)))
        result = simulate_secondary(mt, CacheConfig(capacity=64 * 1024, assoc=4, block_size=64, policy="lru"))
        assert result.demand_accesses == 200
        assert result.demand_hits == 100
        assert result.local_hit_rate == pytest.approx(0.5)

    def test_writebacks_update_but_do_not_count(self):
        wb = int(MissEventKind.WRITEBACK)
        rd = int(MissEventKind.READ_MISS)
        mt = make_miss_trace([5, 5], kinds=[wb, rd])
        result = simulate_secondary(mt, CacheConfig(capacity=64 * 1024, assoc=4, block_size=64, policy="lru"))
        assert result.demand_accesses == 1
        assert result.demand_hits == 1  # the write-back installed the block
        assert result.writebacks_received == 1

    def test_capacity_limits_hit_rate(self):
        blocks = list(range(4096)) * 2  # 256KB working set
        mt = make_miss_trace(blocks)
        small = simulate_secondary(mt, CacheConfig(capacity=64 * 1024, assoc=4, block_size=64, policy="lru"))
        large = simulate_secondary(mt, CacheConfig(capacity=512 * 1024, assoc=4, block_size=64, policy="lru"))
        assert small.local_hit_rate == 0.0  # LRU thrashes a cyclic sweep
        assert large.local_hit_rate == pytest.approx(0.5)

    def test_larger_blocks_exploit_spatial_locality(self):
        # The L1 (64B blocks) misses adjacent blocks; a 128B L2 block
        # fetches both halves at once.
        mt = make_miss_trace(list(range(1000)))
        result = simulate_secondary(
            mt, CacheConfig(capacity=1 << 20, assoc=2, block_size=128, policy="lru")
        )
        assert result.local_hit_rate == pytest.approx(0.5, abs=0.01)

    def test_invalid_sampling(self):
        mt = make_miss_trace([1])
        with pytest.raises(ValueError):
            simulate_secondary(mt, CacheConfig(capacity=1024, assoc=2, block_size=64), sample_every=0)

    def test_empty_trace(self):
        mt = make_miss_trace([])
        result = simulate_secondary(mt, CacheConfig(capacity=1024, assoc=2, block_size=64))
        assert result.local_hit_rate == 0.0


class TestCandidateGrid:
    def test_paper_grid_is_six_configs(self):
        configs = candidate_configs(1 << 20)
        assert len(configs) == 6
        assert {c.assoc for c in configs} == {1, 2, 4}
        assert {c.block_size for c in configs} == {64, 128}

    def test_paper_sizes_ladder(self):
        assert PAPER_L2_SIZES[0] == 64 * 1024
        assert PAPER_L2_SIZES[-1] == 4 * 1024 * 1024

    def test_best_hit_rate_picks_maximum(self):
        # A pattern with conflict misses in direct-mapped: two blocks one
        # cache-size apart, accessed alternately.
        stride_blocks = (64 * 1024) // 64
        mt = make_miss_trace([0, stride_blocks] * 50)
        best = best_hit_rate_at_size(mt, 64 * 1024)
        assert best.config.assoc > 1
        assert best.local_hit_rate > 0.9


class TestSetSampling:
    def test_sampling_approximates_full_simulation(self):
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 1 << 14, size=40_000)
        mt = make_miss_trace(blocks)
        config = CacheConfig(capacity=256 * 1024, assoc=4, block_size=64, policy="lru")
        full = simulate_secondary(mt, config)
        sampled = sampled_hit_rate(mt, config, SamplingPlan(sample_every=8))
        assert sampled.sampled_sets < config.n_sets
        assert abs(full.local_hit_rate - sampled.local_hit_rate) < 0.03

    def test_sampling_falls_back_for_tiny_caches(self):
        mt = make_miss_trace(list(range(64)))
        config = CacheConfig(capacity=4096, assoc=2, block_size=64, policy="lru")
        result = sampled_hit_rate(mt, config, SamplingPlan(sample_every=64))
        # 32 sets / 64 would leave <4 sets; the fallback widens coverage.
        assert result.sampled_sets >= 4

    def test_error_bound_helper(self):
        assert sampling_error_bound([0.5, 0.7], [0.52, 0.69]) == pytest.approx(0.02)
        assert sampling_error_bound([], []) == 0.0
        with pytest.raises(ValueError):
            sampling_error_bound([0.5], [])

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(sample_every=0)
        assert SamplingPlan(sample_every=16).sets_sampled(256) == 16


def naive_stack_distances(blocks, set_mask):
    """Distinct same-set blocks since the previous access, by rescanning."""
    dist = []
    for i, block in enumerate(blocks):
        earlier = [j for j in range(i) if blocks[j] == block]
        if not earlier:
            dist.append(COLD)
            continue
        between = {
            b for b in blocks[earlier[-1] + 1:i] if b & set_mask == block & set_mask
        }
        dist.append(len(between))
    return dist


def reuse_trace(n=6000, n_blocks=3000, seed=3):
    """Reads, writes and write-backs over a footprint with reuse at every
    distance (a hot eighth of the blocks takes half the accesses)."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, n_blocks // 8, size=n)
    cold = rng.integers(0, n_blocks, size=n)
    blocks = np.where(rng.random(n) < 0.5, hot, cold)
    kinds = rng.choice(
        [int(MissEventKind.READ_MISS), int(MissEventKind.WRITE_MISS),
         int(MissEventKind.WRITEBACK), int(MissEventKind.IFETCH_MISS)],
        size=n, p=[0.6, 0.15, 0.15, 0.1],
    )
    return make_miss_trace(blocks, kinds)


class TestStackDistanceLadder:
    @pytest.mark.parametrize("set_mask", [0, 1, 7, 63])
    def test_kernel_matches_rescanning(self, set_mask):
        rng = np.random.default_rng(set_mask)
        for n in (0, 1, 2, 5, 300):
            blocks = rng.integers(0, 40, size=n)
            assert lru_stack_distances(blocks, set_mask).tolist() == (
                naive_stack_distances(blocks.tolist(), set_mask)
            )

    @pytest.mark.parametrize("sample_every", [1, 8])
    def test_every_paper_config_equals_sampled_hit_rate(self, sample_every):
        mt = reuse_trace()
        plan = SamplingPlan(sample_every=sample_every)
        ladder = l2_ladder(mt, PAPER_L2_SIZES, plan)
        assert list(ladder) == [
            config for size in PAPER_L2_SIZES for config in candidate_configs(size)
        ]
        for config, result in ladder.items():
            assert result == sampled_hit_rate(mt, config, plan)

    def test_small_caches_halve_the_factor_like_sampled_hit_rate(self):
        mt = reuse_trace(n=2000, n_blocks=400)
        plan = SamplingPlan(sample_every=16)
        ladder = l2_ladder(mt, [1024 << i for i in range(6)], plan)
        assert {r.sampled_sets for r in ladder.values()} >= {4}
        for config, result in ladder.items():
            assert result == sampled_hit_rate(mt, config, plan)

    def test_one_pass_per_set_count(self, monkeypatch):
        passes = []

        def counting(blocks, set_mask=0):
            passes.append(set_mask)
            return lru_stack_distances(blocks, set_mask)

        monkeypatch.setattr(sampling, "lru_stack_distances", counting)
        ladder = l2_ladder(reuse_trace(n=500), PAPER_L2_SIZES, SamplingPlan(8))
        assert len(ladder) == 42
        # 7 sizes x 2 block sizes x 3 associativities share 18 set counts.
        assert len(passes) == len({(c.n_sets, c.block_size) for c in ladder}) == 18

    def test_repro_check_runs_the_scalar_cache(self, monkeypatch):
        mt = reuse_trace(n=800)
        plan = SamplingPlan(8)
        fast = l2_ladder(mt, PAPER_L2_SIZES[:2], plan)
        monkeypatch.setattr(invariants, "ENABLED", True)
        monkeypatch.setattr(sampling, "lru_stack_distances", None)  # never reached
        assert l2_ladder(mt, PAPER_L2_SIZES[:2], plan) == fast
        with pytest.raises(TypeError):
            l2_ladder(mt, PAPER_L2_SIZES[:2], plan, force=True)

    def test_empty_trace(self):
        mt = make_miss_trace([])
        config = candidate_configs(PAPER_L2_SIZES[0])[0]
        result = lru_results(mt, [config], SamplingPlan(8))[config]
        assert result == sampled_hit_rate(mt, config, SamplingPlan(8))
        assert result.demand_accesses == 0 and result.local_hit_rate == 0.0
