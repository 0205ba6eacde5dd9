"""Tests for repro.sim.runner and repro.sim.results."""

import pytest

from repro.caches.cache import CacheConfig
from repro.core.config import StreamConfig
from repro.sim.results import L1Summary
from repro.sim.runner import MissTraceCache, run_result, simulate_l1
from repro.trace.events import Trace
from repro.workloads import get_workload
from repro.workloads.instructions import with_instructions


class TestSimulateL1:
    def test_sweep_produces_expected_misses(self):
        workload = get_workload("sweep", scale=0.25)
        miss_trace, summary = simulate_l1(workload)
        assert summary.accesses == len(workload.trace())
        assert summary.misses == miss_trace.n_misses
        # 32768 words = 4096 blocks, one miss per block.
        assert summary.misses == 4096

    def test_instruction_traces_use_split_l1(self):
        workload = get_workload("sweep", scale=0.1)
        base_trace = workload.trace()
        augmented = with_instructions(base_trace, per_access=1)
        workload._trace = augmented  # inject the instrumented trace
        miss_trace, summary = simulate_l1(workload)
        assert summary.ifetch_misses > 0
        assert summary.trace_length == len(augmented)

    def test_custom_l1_config(self):
        workload = get_workload("sweep", scale=0.25)
        tiny = CacheConfig(capacity=4096, assoc=2, block_size=64, policy="lru")
        _, summary = simulate_l1(workload, tiny)
        assert summary.misses == 4096  # pure sweep: same miss count


class TestMissTraceCache:
    def test_caches_by_parameters(self):
        cache = MissTraceCache()
        first = cache.get("sweep", scale=0.25)
        second = cache.get("sweep", scale=0.25)
        assert first[0] is second[0]
        assert len(cache) == 1

    def test_distinct_scales_distinct_entries(self):
        cache = MissTraceCache()
        cache.get("sweep", scale=0.25)
        cache.get("sweep", scale=0.5)
        assert len(cache) == 2

    def test_accepts_workload_instance(self):
        cache = MissTraceCache()
        workload = get_workload("sweep", scale=0.25)
        miss_trace, _ = cache.get(workload)
        assert miss_trace.n_misses == 4096

    def test_clear(self):
        cache = MissTraceCache()
        cache.get("sweep", scale=0.25)
        cache.clear()
        assert len(cache) == 0


class TestRunHelpers:
    def test_run_streams_on_sweep(self):
        cache = MissTraceCache()
        stats = run_result(
            "sweep", StreamConfig.jouppi(n_streams=2), scale=0.25, cache=cache
        ).streams
        assert stats.hit_rate > 0.99

    def test_run_result_bundles_l1(self):
        cache = MissTraceCache()
        result = run_result("sweep", StreamConfig.jouppi(n_streams=2), scale=0.25, cache=cache)
        assert result.workload == "sweep"
        assert result.l1.misses == result.streams.demand_misses
        assert result.hit_rate_percent > 99

    def test_run_result_to_dict(self):
        cache = MissTraceCache()
        result = run_result("sweep", StreamConfig.jouppi(n_streams=2), scale=0.25, cache=cache)
        payload = result.to_dict()
        assert payload["workload"] == "sweep"
        assert payload["hit_rate_percent"] == pytest.approx(result.hit_rate_percent)
        assert payload["config"]["n_streams"] == 2

    def test_run_result_with_instance(self):
        cache = MissTraceCache()
        workload = get_workload("sweep", scale=0.25, seed=7)
        result = run_result(workload, StreamConfig.jouppi(n_streams=2), cache=cache)
        assert result.seed == 7
        assert result.scale == 0.25

    def test_instance_provenance_wins_over_conflicting_args(self):
        # Regression: the recorded scale/seed must describe what was
        # simulated (the instance's own parameters), not the caller's
        # ignored scale=/seed= arguments.
        cache = MissTraceCache()
        workload = get_workload("sweep", scale=0.25, seed=7)
        result = run_result(
            workload, StreamConfig.jouppi(n_streams=2), scale=1.0, seed=0, cache=cache
        )
        assert result.scale == 0.25
        assert result.seed == 7
        # And the cache keyed it under the instance parameters: the same
        # name+scale+seed by string lookup reuses the entry.
        assert cache.get("sweep", scale=0.25, seed=7)[0] is cache.get(workload)[0]
        assert len(cache) == 1


class TestL1Summary:
    def test_from_stats(self):
        from repro.caches.cache import CacheStats

        stats = CacheStats(accesses=100, hits=90, misses=10, writebacks=2)
        summary = L1Summary.from_stats(stats, trace_length=100, data_set_bytes=4096)
        assert summary.miss_rate == pytest.approx(0.1)
        assert summary.data_set_bytes == 4096
