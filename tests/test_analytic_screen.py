"""Tests for the Table 4 search on the exact L2 ladder, under both of
its names (:func:`repro.sim.compare.min_matching_l2_size` and
:func:`repro.analytic.min_matching_l2_size_analytic`): it must return
the matched size of the per-configuration probe search while evaluating
every size exactly, and its store-backed path must serve miss traces."""

from types import SimpleNamespace

import pytest

from repro.analytic import min_matching_l2_size_analytic
from repro.caches.sampling import SamplingPlan, sampled_hit_rate
from repro.caches.secondary import (
    PAPER_L2_ASSOCS,
    PAPER_L2_BLOCKS,
    PAPER_L2_SIZES,
    SecondaryResult,
    candidate_configs,
)
from repro.sim.compare import match_ladder, min_matching_l2_size, search_min_match
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore

GRID_CONFIGS = len(PAPER_L2_SIZES) * len(PAPER_L2_ASSOCS) * len(PAPER_L2_BLOCKS)


@pytest.fixture(scope="module")
def cache():
    return MissTraceCache()


def probe_search(miss_trace, target, sizes=PAPER_L2_SIZES, plan=SamplingPlan(8)):
    """The binary search over per-configuration ``sampled_hit_rate``
    probes, each size stopping at its first configuration that reaches
    the target: the search the ladder replaced, from public pieces."""
    sizes = sorted(sizes)

    def decide(index):
        return any(
            sampled_hit_rate(miss_trace, config, plan).local_hit_rate >= target
            for config in candidate_configs(sizes[index])
        )

    matched = search_min_match(len(sizes), decide)
    return None if matched is None else sizes[matched]


class TestAgreementWithBruteForce:
    @pytest.mark.parametrize(
        "name,scale",
        [("random", 1.0), ("sweep", 0.25), ("buk", 0.5), ("mdg", 0.5)],
    )
    def test_matched_size_and_budget(self, cache, name, scale):
        ladder = min_matching_l2_size(name, scale=scale, cache=cache)
        miss_trace, _ = cache.get(name, scale=scale)
        assert ladder.matched_size == probe_search(
            miss_trace, ladder.stream_stats.hit_rate
        )
        # One exact ladder: every candidate configuration, nothing pruned.
        assert ladder.configs_simulated == GRID_CONFIGS
        assert ladder.sizes_pruned == 0
        assert min_matching_l2_size_analytic(name, scale=scale, cache=cache) == ladder

    def test_unmatchable_cell_reports_every_size(self, cache):
        # A pure sweep has no L2 reuse while streams are near-perfect:
        # no size matches, and the ladder still reports all of them.
        screened = min_matching_l2_size_analytic("sweep", scale=0.25, cache=cache)
        assert screened.matched_size is None
        assert [p.size for p in screened.l2_hit_rates] == sorted(PAPER_L2_SIZES)
        assert all(p.hit_rate < screened.stream_stats.hit_rate for p in screened.l2_hit_rates)

    def test_result_provenance_fields(self, cache):
        screened = min_matching_l2_size_analytic("random", cache=cache)
        assert screened.mechanism == "streams"
        assert [p.size for p in screened.l2_hit_rates] == sorted(PAPER_L2_SIZES)
        assert all(0.0 <= p.hit_rate <= 1.0 for p in screened.l2_hit_rates)
        assert screened.probe_seconds > 0.0
        assert screened.configs_simulated == GRID_CONFIGS

    def test_probed_points_carry_config_provenance(self, cache):
        screened = min_matching_l2_size_analytic("buk", scale=0.5, cache=cache)
        miss_trace, _ = cache.get("buk", scale=0.5)
        plan = SamplingPlan(8)
        for point in screened.l2_hit_rates:
            rates = [
                (sampled_hit_rate(miss_trace, config, plan).local_hit_rate, config)
                for config in candidate_configs(point.size)
            ]
            best = max(rate for rate, _ in rates)
            # The best rate, from the first configuration reaching it.
            first = next(config for rate, config in rates if rate == best)
            assert point.hit_rate == best
            assert (point.assoc, point.block_size) == (first.assoc, first.block_size)

    def test_custom_sizes(self, cache):
        sizes = (256 * 1024, 64 * 1024, 1 << 20)
        result = min_matching_l2_size("buk", scale=0.5, cache=cache, sizes=sizes)
        assert [p.size for p in result.l2_hit_rates] == sorted(sizes)
        assert result.configs_simulated == len(sizes) * 6
        miss_trace, _ = cache.get("buk", scale=0.5)
        assert result.matched_size == probe_search(
            miss_trace, result.stream_stats.hit_rate, sizes
        )

    def test_non_monotone_ladder_keeps_binary_search_answer(self):
        # Sampling can make the best-rate curve dip.  The decision is a
        # lookup into the ladder, so the matched size is the one the
        # binary search reaches, not the first size over the target.
        sizes = [1024 << i for i in range(4)]
        hits = dict(zip(sizes, (5, 1, 6, 9)))  # per 10 demand accesses
        ladder = {
            config: SecondaryResult(
                config, 10, hits[size] if config.assoc == 2 else 0, 0, config.n_sets
            )
            for size in sizes
            for config in candidate_configs(size)
        }
        target = SimpleNamespace(hit_rate=0.45)
        result = match_ladder("synthetic", 1.0, target, "streams", ladder, sizes)
        assert result.matched_size == sizes[2]
        assert [p.hit_rate for p in result.l2_hit_rates] == [0.5, 0.1, 0.6, 0.9]
        # Ties go to the first candidate configuration: 2-way, 64 B.
        assert {(p.assoc, p.block_size) for p in result.l2_hit_rates} == {(2, 64)}


class TestStoreBackedProfiles:
    """The search runs over a store-backed trace cache; it writes no
    ``profile`` entries, which only the fully-associative profiler makes."""

    def test_no_store_still_works(self, cache):
        result = min_matching_l2_size_analytic("random", cache=MissTraceCache())
        assert result == min_matching_l2_size("random", cache=cache)

    def test_search_through_store_matches_memoryless(self, tmp_path, cache):
        store = TraceStore(tmp_path)
        stored_cache = MissTraceCache(store=store)
        first = min_matching_l2_size_analytic("buk", scale=0.5, cache=stored_cache)
        assert store.count("profile") == 0
        # A fresh cache (new process, conceptually) loads the trace.
        second = min_matching_l2_size_analytic(
            "buk", scale=0.5, cache=MissTraceCache(store=store)
        )
        assert second == first
        assert second == min_matching_l2_size("buk", scale=0.5, cache=cache)


class TestGuidedSearch:
    """search_min_match unit behaviour: the lower-bound search must stay
    correct for any guess and any monotone predicate."""

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
        assert search_min_match(0, lambda i: True, guess=guess) is None

    def test_correct_guess_resolves_in_two_probes(self):
        probes = []

        def decide(i):
            probes.append(i)
            return i >= 4

        assert search_min_match(8, decide, guess=4) == 4
        assert len(probes) == 2  # the boundary and its predecessor

    def test_unguided_is_binary(self):
        probes = []
        search_min_match(64, lambda i: probes.append(i) or False)
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
