"""Tests for repro.sim.parallel: the process-pool sweep executor.

The equivalence tests run real worker processes (``jobs=2``) and assert
bit-identical ``StreamStats`` against the serial path — dataclass
equality covers every counter, the bandwidth model, and the length
histograms.  Small synthetic workloads keep the pool runs quick.
"""

import struct
import zipfile

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

    def test_cold_pooled_grid_simulates_each_trace_once(self, tmp_path):
        from repro.obs.metrics import engine_registry

        def computed():
            counters = engine_registry().snapshot()["counters"]
            return counters.get("engine_runner_trace_computed_total", 0)

        tasks = [
            SweepTask(
                key=(name, n), workload=name,
                config=StreamConfig.jouppi(n_streams=n), scale=SCALE,
            )
            for name in ("sweep", "stride", "interleaved")
            for n in (1, 2, 3, 4)
        ]
        before = computed()
        pooled = run_grid(tasks, jobs=2, store=TraceStore(tmp_path))
        # Every cell of a trace runs in one chunk, so one worker simulates
        # it, whatever the timing.
        assert computed() - before == 3
        assert pooled == run_grid(tasks, jobs=1)


def _damage_member(path, member):
    """Flip bytes in the middle of one archive member's compressed data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    data = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    middle = info.header_offset + 30 + name_len + extra_len + info.compress_size // 2
    data[middle : middle + 8] = bytes(b ^ 0xFF for b in data[middle : middle + 8])
    path.write_bytes(bytes(data))
    return bytes(data)


def _sweep_cell(n):
    return SweepTask(
        key=n, workload="sweep", config=StreamConfig.jouppi(n_streams=n), scale=SCALE
    )


class TestWarmCellsReadSummaries:
    """A cell whose result is stored needs only its trace's L1 summary,
    which comes from the archive's ``meta`` member; the miss-trace arrays
    are decoded only for a replay."""

    TASKS = [_sweep_cell(1), _sweep_cell(2)]

    def fill(self, tmp_path):
        store = TraceStore(tmp_path)
        cold = run_grid(self.TASKS, store=store)
        events = []
        store.hooks = events.append
        path = store.path("trace", MissTraceCache().trace_key("sweep", SCALE, 0))
        return store, cold, events, path

    def test_warm_cells_decode_no_trace(self, tmp_path):
        store, cold, events, _ = self.fill(tmp_path)
        warm = run_grid(self.TASKS, cache=MissTraceCache(store=store))
        assert warm == cold and all(r.source == "store" for r in warm)
        assert events == ["result_hit", "trace_summary_hit", "result_hit"]

    def test_damaged_arrays_intact_meta(self, tmp_path):
        store, cold, events, path = self.fill(tmp_path)
        damaged = _damage_member(path, "addrs.npy")
        assert store.get("trace", path.stem) is None  # the arrays do not decode
        del events[:]
        warm = run_grid(self.TASKS, cache=MissTraceCache(store=store))
        assert warm == cold and all(r.source == "store" for r in warm)
        assert events == ["result_hit", "trace_summary_hit", "result_hit"]
        assert path.read_bytes() == damaged  # a warm read leaves the entry be
        del events[:]
        [result] = run_grid([_sweep_cell(3)], cache=MissTraceCache(store=store))
        assert result.source == "replayed" and result.l1 == cold[0].l1
        assert events == ["result_miss", "trace_miss", "trace_saved", "result_saved"]
        assert store.get("trace", path.stem) is not None  # healed by the replay

    def test_corrupt_archive_next_to_results_recomputes_and_heals(self, tmp_path):
        store, cold, events, path = self.fill(tmp_path)
        path.write_bytes(b"corrupt")
        del events[:]
        warm = run_grid(self.TASKS, cache=MissTraceCache(store=store))
        assert warm == cold and all(r.source == "store" for r in warm)
        assert events == [
            "result_hit", "trace_summary_miss", "trace_miss", "trace_saved", "result_hit",
        ]
        assert store.get("trace", path.stem) is not None


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
