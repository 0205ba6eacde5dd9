"""End-to-end integration tests: workload -> L1 -> streams shapes.

These assert the paper's *qualitative* results on cheap configurations —
the full exhibits run in the benchmark harness.
"""

import pytest

from repro.core.config import StreamConfig
from repro.sim.compare import min_matching_l2_size
from repro.sim.runner import MissTraceCache, run_result
from repro.sim.sweep import sweep_czone_bits, sweep_n_streams


@pytest.fixture(scope="module")
def cache():
    return MissTraceCache()


class TestMicrobenchShapes:
    def test_unit_sweep_is_near_perfect(self, cache):
        config = StreamConfig.jouppi(n_streams=2)
        stats = run_result("sweep", config, scale=0.25, cache=cache).streams
        assert stats.hit_rate > 0.99

    def test_random_is_near_zero(self, cache):
        stats = run_result("random", StreamConfig.jouppi(n_streams=10), cache=cache).streams
        assert stats.hit_rate < 0.02

    def test_strided_needs_detection(self, cache):
        unit = run_result("stride", StreamConfig.filtered(), scale=0.25, cache=cache).streams
        detected = run_result(
            "stride", StreamConfig.non_unit(czone_bits=14), scale=0.25, cache=cache
        ).streams
        assert unit.hit_rate < 0.02
        assert detected.hit_rate > 0.95

    def test_filter_eliminates_random_waste(self, cache):
        plain = run_result("random", StreamConfig.jouppi(), cache=cache).streams
        filtered = run_result("random", StreamConfig.filtered(), cache=cache).streams
        assert plain.bandwidth.eb_measured > 100  # ~2 wasted per miss
        assert filtered.bandwidth.eb_measured < 5


class TestPaperBandSpotChecks:
    """One cheap NAS and one cheap PERFECT benchmark against Figure 3."""

    def test_buk_band(self, cache):
        result = run_result("buk", StreamConfig.jouppi(n_streams=10), cache=cache)
        assert 55 <= result.hit_rate_percent <= 80  # paper ~65

    def test_trfd_band(self, cache):
        result = run_result("trfd", StreamConfig.jouppi(n_streams=10), cache=cache)
        assert 40 <= result.hit_rate_percent <= 60  # paper ~50

    def test_trfd_gains_from_stride_detection(self, cache):
        unit = run_result("trfd", StreamConfig.filtered(), cache=cache).streams
        stride = run_result("trfd", StreamConfig.non_unit(czone_bits=19), cache=cache).streams
        assert stride.hit_rate_percent - unit.hit_rate_percent > 8

    def test_trfd_filter_slashes_eb(self, cache):
        plain = run_result("trfd", StreamConfig.jouppi(), cache=cache).streams
        filtered = run_result("trfd", StreamConfig.filtered(), cache=cache).streams
        assert plain.bandwidth.eb_measured > 60
        assert filtered.bandwidth.eb_measured < 15
        # ... at almost no hit-rate cost (paper Section 6.1).
        assert plain.hit_rate_percent - filtered.hit_rate_percent < 5


class TestSaturationShape:
    def test_hit_rate_plateaus_with_streams(self, cache):
        results = sweep_n_streams("buk", n_values := (1, 2, 4, 8, 10), cache=cache)
        rates = [results[n].hit_rate_percent for n in n_values]
        assert rates[-1] >= rates[0]
        # Plateau: adding streams 8 -> 10 changes little.
        assert abs(rates[-1] - rates[-2]) < 3


class TestCzoneBandShape:
    def test_stride_micro_has_a_band(self, cache):
        sweep = sweep_czone_bits(
            "stride", czone_bits_values=(8, 16, 24), scale=0.25, cache=cache
        )
        # Too small fails; moderate and large succeed for a single walk.
        assert sweep[8].hit_rate_percent < 5
        assert sweep[16].hit_rate_percent > 90


class TestScalingDirection:
    def test_buk_l2_requirement_grows_with_scale(self, cache):
        small = min_matching_l2_size("buk", scale=0.25, cache=cache)
        large = min_matching_l2_size("buk", scale=1.0, cache=cache)

        def rank(size):
            return size if size is not None else 1 << 40

        assert rank(large.matched_size) >= rank(small.matched_size)


class TestWritebackTraffic:
    def test_write_heavy_workload_invalidates_stream_entries(self, cache):
        result = run_result("buk", StreamConfig.jouppi(n_streams=10), cache=cache)
        assert result.streams.writebacks > 0
        # Write-backs must never be counted as demand misses.
        assert result.streams.demand_misses == result.l1.misses
