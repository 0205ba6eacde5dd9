"""Tests for repro.sim.sweep and repro.sim.compare."""

import pytest

from repro.core.config import StreamConfig
from repro.sim.compare import format_size, min_matching_l2_size
from repro.sim.runner import MissTraceCache
from repro.sim.sweep import (
    compare_configs,
    sweep_czone_bits,
    sweep_depth,
    sweep_n_streams,
)


@pytest.fixture(scope="module")
def cache():
    return MissTraceCache()


class TestSweepNStreams:
    def test_interleaved_needs_enough_streams(self, cache):
        results = sweep_n_streams(
            "interleaved", n_streams_values=(1, 2, 8), scale=0.25, cache=cache
        )
        assert results[1].hit_rate < 0.1
        assert results[8].hit_rate > 0.9

    def test_hit_rate_monotone_up_to_saturation(self, cache):
        results = sweep_n_streams(
            "interleaved", n_streams_values=(2, 4, 6, 8), scale=0.25, cache=cache
        )
        rates = [results[n].hit_rate for n in (2, 4, 6, 8)]
        assert rates == sorted(rates)

    def test_configs_preserved(self, cache):
        results = sweep_n_streams("sweep", n_streams_values=(3,), scale=0.25, cache=cache)
        assert results[3].config.n_streams == 3


class TestSweepCzone:
    def test_stride_workload_band(self, cache):
        results = sweep_czone_bits(
            "stride", czone_bits_values=(8, 14, 20), scale=0.25, cache=cache
        )
        # 1KB stride: an 8-bit czone cannot hold two strided refs.
        assert results[8].hit_rate < 0.05
        assert results[14].hit_rate > 0.9

    def test_requires_czone_config(self, cache):
        with pytest.raises(ValueError):
            sweep_czone_bits("stride", base=StreamConfig.filtered(), cache=cache)


class TestSweepDepth:
    def test_depth_does_not_reduce_sequential_hits(self, cache):
        results = sweep_depth("sweep", depth_values=(1, 4), scale=0.25, cache=cache)
        assert results[4].hit_rate >= results[1].hit_rate


class TestCompareConfigs:
    def test_labels_map_to_results(self, cache):
        results = compare_configs(
            "sweep",
            {"plain": StreamConfig.jouppi(n_streams=2), "filtered": StreamConfig.filtered(n_streams=2)},
            scale=0.25,
            cache=cache,
        )
        assert set(results) == {"plain", "filtered"}
        assert results["plain"].hit_rate > 0.99


class TestMinMatchingL2:
    def test_random_workload_matched_by_smallest_l2(self, cache):
        # Streams do nothing on random references, so the smallest L2
        # already reaches the (near-zero) stream hit rate.
        result = min_matching_l2_size("random", cache=cache)
        assert result.matched_size == 64 * 1024
        assert result.stream_stats.hit_rate < 0.05

    def test_sweep_workload_unmatchable(self, cache):
        # A pure one-pass sweep has no reuse for any L2, while streams
        # are nearly perfect: no cache size can match.
        result = min_matching_l2_size("sweep", scale=0.25, cache=cache)
        assert result.matched_size is None
        # The 128B-block L2 configs reach 50% from spatial locality (the
        # L1 misses both halves); no config approaches the stream rate.
        assert all(point.hit_rate <= 0.55 for point in result.l2_hit_rates)

    def test_l2_rates_recorded_per_size(self, cache):
        result = min_matching_l2_size("random", cache=cache)
        sizes = [point.size for point in result.l2_hit_rates]
        assert sizes == sorted(sizes)

    def test_points_carry_config_provenance(self, cache):
        from repro.caches.secondary import PAPER_L2_ASSOCS, PAPER_L2_BLOCKS

        result = min_matching_l2_size("random", cache=cache)
        for point in result.l2_hit_rates:
            assert point.assoc in PAPER_L2_ASSOCS
            assert point.block_size in PAPER_L2_BLOCKS

    def test_binary_search_counts_configs(self, cache):
        result = min_matching_l2_size("random", cache=cache)
        # Every size's grid is evaluated once, then binary-searched.
        assert len(result.l2_hit_rates) == 7
        assert result.configs_simulated == 6 * len(result.l2_hit_rates)


class TestFormatSize:
    def test_kb(self):
        assert format_size(64 * 1024) == "64 KB"
        assert format_size(512 * 1024) == "512 KB"

    def test_mb(self):
        assert format_size(1 << 20) == "1 MB"
        assert format_size(2 << 20) == "2 MB"

    def test_unmatched(self):
        assert format_size(None) == ">4 MB"


class TestAnalyticStreamSweep:
    def _configs(self, n_values=(1, 4, 8)):
        return {n: StreamConfig.filtered(n_streams=n) for n in n_values}

    def test_best_witness_lands_in_bound(self, cache):
        from repro.sim.compare import analytic_stream_sweep

        cells = analytic_stream_sweep(
            "sweep", self._configs(), scale=0.25, cache=cache
        )
        assert list(cells) == [1, 4, 8]
        witnessed = [cell for cell in cells.values() if cell.witnessed]
        assert len(witnessed) == 1  # "best" replays exactly one cell
        (cell,) = witnessed
        assert cell.within_bound
        assert cell.predicted_hit_rate == max(
            c.predicted_hit_rate for c in cells.values()
        )

    def test_none_witness_simulates_nothing(self, cache):
        from repro.sim.compare import analytic_stream_sweep

        cells = analytic_stream_sweep(
            "sweep", self._configs((2, 6)), scale=0.25, cache=cache, witness="none"
        )
        assert all(not cell.witnessed for cell in cells.values())
        assert all(cell.simulated_hit_rate is None for cell in cells.values())
        assert all(cell.within_bound for cell in cells.values())  # vacuous
        for cell in cells.values():
            assert 0.0 <= cell.predicted_hit_rate <= 1.0
            assert 0.0 < cell.bound <= 1.0

    def test_configs_coerced_onto_envelope(self, cache):
        from repro.analytic.streams import in_envelope
        from repro.sim.compare import analytic_stream_sweep

        off_envelope = StreamConfig.filtered(n_streams=4).with_(
            partitioned=True, i_streams=2
        )
        cells = analytic_stream_sweep(
            "sweep", {"x": off_envelope}, scale=0.25, cache=cache, witness="none"
        )
        assert in_envelope(cells["x"].config)
