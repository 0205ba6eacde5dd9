"""Tests for repro.analytic.screen: the analytically screened Table 4
search must agree with brute force while simulating a fraction of the
grid, and its store-backed profile path must round-trip."""

import numpy as np
import pytest

from repro.analytic import (
    ESTIMATOR_SLACK,
    PROFILE_BLOCK_SIZES,
    ensure_profiles,
    min_matching_l2_size_analytic,
)
from repro.caches.sampling import sampling_halfwidth
from repro.caches.secondary import PAPER_L2_ASSOCS, PAPER_L2_BLOCKS, PAPER_L2_SIZES
from repro.sim.compare import min_matching_l2_size, search_min_match
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore

GRID_CONFIGS = len(PAPER_L2_SIZES) * len(PAPER_L2_ASSOCS) * len(PAPER_L2_BLOCKS)


@pytest.fixture(scope="module")
def cache():
    return MissTraceCache()


class TestAgreementWithBruteForce:
    @pytest.mark.parametrize(
        "name,scale",
        [("random", 1.0), ("sweep", 0.25), ("buk", 0.5), ("mdg", 0.5)],
    )
    def test_matched_size_and_budget(self, cache, name, scale):
        brute = min_matching_l2_size(name, scale=scale, cache=cache)
        screened = min_matching_l2_size_analytic(name, scale=scale, cache=cache)
        assert screened.matched_size == brute.matched_size
        assert screened.configs_simulated <= GRID_CONFIGS // 4
        # Any size both paths probed produced bit-identical points.
        brute_points = {p.size: p for p in brute.l2_hit_rates}
        for point in screened.l2_hit_rates:
            if point.size in brute_points:
                assert point == brute_points[point.size]

    def test_unmatchable_needs_no_simulation(self, cache):
        # A pure sweep has no L2 reuse while streams are near-perfect:
        # the whole ladder is certain-miss and is screened out entirely.
        screened = min_matching_l2_size_analytic("sweep", scale=0.25, cache=cache)
        assert screened.matched_size is None
        assert screened.configs_simulated == 0
        assert screened.l2_hit_rates == ()

    def test_result_provenance_fields(self, cache):
        screened = min_matching_l2_size_analytic("random", cache=cache)
        assert screened.method == "analytic"
        assert [size for size, _ in screened.analytic_estimates] == sorted(
            PAPER_L2_SIZES
        )
        assert all(0.0 <= est <= 1.0 for _, est in screened.analytic_estimates)
        brute = min_matching_l2_size("random", cache=cache)
        assert brute.method == "simulated"
        assert brute.analytic_estimates == ()

    def test_probed_points_carry_config_provenance(self, cache):
        screened = min_matching_l2_size_analytic("buk", scale=0.5, cache=cache)
        for point in screened.l2_hit_rates:
            assert point.assoc in PAPER_L2_ASSOCS
            assert point.block_size in PAPER_L2_BLOCKS


class TestStoreBackedProfiles:
    def test_ensure_profiles_round_trips(self, tmp_path, cache):
        store = TraceStore(tmp_path)
        trace, _ = cache.get("buk", scale=0.5)
        computed = ensure_profiles(trace, store=store, digest="d1")
        assert store.count("profile") == 1
        loaded = ensure_profiles(trace, store=store, digest="d1")
        for bs in PROFILE_BLOCK_SIZES:
            assert np.array_equal(loaded[bs].read_hist, computed[bs].read_hist)
            assert np.array_equal(loaded[bs].write_hist, computed[bs].write_hist)
            assert loaded[bs].cold_reads == computed[bs].cold_reads

    def test_no_store_still_works(self, cache):
        trace, _ = cache.get("random", scale=1.0)
        profiles = ensure_profiles(trace)
        assert set(profiles) == set(PROFILE_BLOCK_SIZES)

    def test_search_through_store_matches_memoryless(self, tmp_path):
        store = TraceStore(tmp_path)
        stored_cache = MissTraceCache(store=store)
        first = min_matching_l2_size_analytic("buk", scale=0.5, cache=stored_cache)
        assert store.count("profile") == 1
        # A fresh cache (new process, conceptually) loads the profile.
        second = min_matching_l2_size_analytic(
            "buk", scale=0.5, cache=MissTraceCache(store=store)
        )
        assert second.matched_size == first.matched_size
        assert second.analytic_estimates == first.analytic_estimates
        assert second.l2_hit_rates == first.l2_hit_rates


class TestGuidedSearch:
    """search_min_match unit behaviour: the screen's seeded lower-bound
    search must stay correct for any guess and any monotone predicate."""

    @pytest.mark.parametrize("boundary", range(8))
    @pytest.mark.parametrize("guess", [None, 0, 3, 7])
    def test_finds_boundary_for_any_guess(self, boundary, guess):
        probes = []

        def decide(i):
            probes.append(i)
            return i >= boundary

        assert search_min_match(8, decide, guess=guess) == boundary
        assert len(probes) == len(set(probes))  # never re-probes a size

    @pytest.mark.parametrize("guess", [None, 0, 7])
    def test_unmatchable_returns_none(self, guess):
        assert search_min_match(8, lambda i: False, guess=guess) is None

    def test_correct_guess_resolves_in_two_probes(self):
        probes = []

        def decide(i):
            probes.append(i)
            return i >= 4

        assert search_min_match(8, decide, guess=4) == 4
        assert len(probes) == 2  # the boundary and its predecessor

    def test_unguided_is_binary(self):
        probes = []
        search_min_match(64, lambda i: probes.append(i) or False, guess=None)
        assert len(probes) <= 7  # log2(64) + 1, not a linear walk


class TestConfidenceBands:
    def test_full_simulation_band_is_zero(self, cache):
        from repro.caches.cache import CacheConfig
        from repro.caches.secondary import simulate_secondary

        trace, _ = cache.get("random", scale=1.0)
        config = CacheConfig(capacity=64 * 1024, assoc=2, block_size=64, policy="lru")
        full = simulate_secondary(trace, config)
        assert full.sampled_fraction == 1.0
        assert full.hit_rate_halfwidth() == 0.0

    def test_sampled_band_is_positive_and_shrinks(self, cache):
        from repro.caches.cache import CacheConfig
        from repro.caches.secondary import simulate_secondary

        trace, _ = cache.get("random", scale=1.0)
        config = CacheConfig(capacity=1 << 20, assoc=2, block_size=64, policy="lru")
        sampled = simulate_secondary(trace, config, sample_every=8)
        assert 0.0 < sampled.sampled_fraction < 1.0
        band = sampled.hit_rate_halfwidth()
        assert band > 0.0
        assert sampled.hit_rate_halfwidth(z=1.0) < band  # scales with z

    def test_apriori_halfwidth_edges(self):
        assert sampling_halfwidth(0) == 1.0
        assert sampling_halfwidth(-5) == 1.0
        assert sampling_halfwidth(10_000) < 0.02
        # Worst-case p=0.5 dominates any actual rate.
        assert sampling_halfwidth(400, hit_rate=0.1) < sampling_halfwidth(400)

    def test_screen_margin_is_conservative(self, cache):
        # The pruning margin must cover both noise sources by design.
        assert ESTIMATOR_SLACK > 0.0
        margin = sampling_halfwidth(1000) + ESTIMATOR_SLACK
        assert margin > ESTIMATOR_SLACK
