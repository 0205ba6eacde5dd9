"""Tests for repro.sim.parallel: the process-pool sweep executor.

The equivalence tests run real worker processes (``jobs=2``) and assert
bit-identical ``StreamStats`` against the serial path — dataclass
equality covers every counter, the bandwidth model, and the length
histograms.  Small synthetic workloads keep the pool runs quick.
"""

import numpy as np
import pytest

from repro.core.config import StreamConfig
from repro.sim.parallel import (
    SweepExecutionError,
    SweepTask,
    TaskError,
    grid_stats,
    run_grid,
)
from repro.sim.results import RunResult
from repro.sim.runner import MissTraceCache
from repro.sim.sweep import compare_configs, sweep_n_streams
from repro.trace.store import TraceStore

WORKLOADS = ("sweep", "stride")
SCALE = 0.25


def small_tasks():
    return [
        SweepTask(
            key=(name, n),
            workload=name,
            config=StreamConfig.jouppi(n_streams=n),
            scale=SCALE,
        )
        for name in WORKLOADS
        for n in (1, 2, 4)
    ]


class TestRunGrid:
    def test_results_in_task_order(self):
        tasks = small_tasks()
        results = run_grid(tasks, jobs=1)
        assert len(results) == len(tasks)
        for task, result in zip(tasks, results):
            assert isinstance(result, RunResult)
            assert result.workload == task.key[0]
            assert result.streams.config.n_streams == task.key[1]

    def test_parallel_matches_serial_bit_for_bit(self):
        tasks = small_tasks()
        serial = run_grid(tasks, jobs=1, cache=MissTraceCache())
        parallel = run_grid(tasks, jobs=2)
        assert [r.streams for r in serial] == [r.streams for r in parallel]
        assert [r.l1 for r in serial] == [r.l1 for r in parallel]

    def test_parallel_chunking_preserves_order(self):
        tasks = small_tasks()
        serial = run_grid(tasks, jobs=1)
        chunked = run_grid(tasks, jobs=2, chunk_size=1)
        assert [r.streams for r in serial] == [r.streams for r in chunked]

    def test_bad_workload_yields_tagged_error(self):
        tasks = [
            SweepTask(key="ok", workload="sweep", config=StreamConfig.jouppi(), scale=SCALE),
            SweepTask(key="bad", workload="no-such-workload", config=StreamConfig.jouppi()),
        ]
        results = run_grid(tasks, jobs=1)
        assert isinstance(results[0], RunResult)
        error = results[1]
        assert isinstance(error, TaskError)
        assert error.key == "bad"
        assert error.workload == "no-such-workload"
        assert "no-such-workload" in error.error
        assert error.details  # traceback captured for debugging

    def test_bad_workload_tagged_in_pool_too(self):
        tasks = [
            SweepTask(key="bad", workload="no-such-workload", config=StreamConfig.jouppi()),
            SweepTask(key="ok", workload="sweep", config=StreamConfig.jouppi(), scale=SCALE),
        ]
        results = run_grid(tasks, jobs=2, chunk_size=1)
        assert isinstance(results[0], TaskError)
        assert isinstance(results[1], RunResult)

    def test_accepts_workload_instances(self):
        from repro.workloads import get_workload

        workload = get_workload("sweep", scale=SCALE, seed=3)
        [result] = run_grid(
            [SweepTask(key=0, workload=workload, config=StreamConfig.jouppi())]
        )
        assert result.seed == 3
        assert result.scale == SCALE


class TestStoreIntegration:
    def test_warm_store_results_identical(self, tmp_path):
        tasks = small_tasks()
        baseline = run_grid(tasks, jobs=1, cache=MissTraceCache())
        store = TraceStore(tmp_path)
        cold = run_grid(tasks, jobs=1, store=store)
        assert store.count("result") == len(tasks)
        warm = run_grid(tasks, jobs=1, store=store)
        assert [r.streams for r in baseline] == [r.streams for r in cold]
        assert [r.streams for r in baseline] == [r.streams for r in warm]
        assert [r.l1 for r in baseline] == [r.l1 for r in warm]

    def test_store_inherited_from_cache(self, tmp_path):
        store = TraceStore(tmp_path)
        cache = MissTraceCache(store=store)
        run_grid(small_tasks(), jobs=1, cache=cache)
        assert store.count("trace") == len(WORKLOADS)
        assert store.count("result") == len(small_tasks())

    def test_parallel_workers_share_store(self, tmp_path):
        store = TraceStore(tmp_path)
        run_grid(small_tasks(), jobs=2, store=store)
        warm = run_grid(small_tasks(), jobs=2, store=store)
        serial = run_grid(small_tasks(), jobs=1, cache=MissTraceCache())
        assert [r.streams for r in serial] == [r.streams for r in warm]


class TestGridStats:
    def test_keys_are_task_keys(self):
        stats = grid_stats(small_tasks(), jobs=1)
        assert set(stats) == {(name, n) for name in WORKLOADS for n in (1, 2, 4)}

    def test_raises_on_any_failure(self):
        tasks = [
            SweepTask(key="bad", workload="no-such-workload", config=StreamConfig.jouppi())
        ]
        with pytest.raises(SweepExecutionError) as excinfo:
            grid_stats(tasks, jobs=1)
        assert excinfo.value.errors[0].key == "bad"


class TestSweepHelpersEquivalence:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_sweep_n_streams_serial_vs_parallel(self, workload):
        values = (1, 2, 4)
        serial = sweep_n_streams(
            workload, values, scale=SCALE, cache=MissTraceCache(), jobs=1
        )
        parallel = sweep_n_streams(
            workload, values, scale=SCALE, cache=MissTraceCache(), jobs=2
        )
        assert serial == parallel  # dataclass equality: every counter + histograms
        for n in values:
            assert serial[n].config.n_streams == n
            assert serial[n].lengths.hits_by_bucket == parallel[n].lengths.hits_by_bucket
            assert serial[n].bandwidth == parallel[n].bandwidth

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_compare_configs_serial_vs_parallel(self, workload):
        configs = {
            "jouppi": StreamConfig.jouppi(n_streams=4),
            "filtered": StreamConfig.filtered(n_streams=4),
        }
        serial = compare_configs(workload, configs, scale=SCALE, cache=MissTraceCache())
        parallel = compare_configs(
            workload, configs, scale=SCALE, cache=MissTraceCache(), jobs=2
        )
        assert serial == parallel
        assert set(serial) == set(configs)


class TestReplicationJobs:
    def test_replicate_parallel_matches_serial(self):
        from repro.sim.replication import replicate

        config = StreamConfig.jouppi(n_streams=4)
        serial_runs, serial_summary = replicate(
            "sweep", config, seeds=(0, 1), scale=SCALE, cache=MissTraceCache(), jobs=1
        )
        parallel_runs, parallel_summary = replicate(
            "sweep", config, seeds=(0, 1), scale=SCALE, cache=MissTraceCache(), jobs=2
        )
        assert [r.streams for r in serial_runs] == [r.streams for r in parallel_runs]
        assert serial_summary["hit_pct"].mean == parallel_summary["hit_pct"].mean
