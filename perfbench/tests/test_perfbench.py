"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import attribution, common, inprocess, serve

ROOT = Path(__file__).resolve().parents[2]

SMOKE = inprocess.Sizing(
    benchmarks=("mgrid", "applu"),
    table4_cells=(("applu", 0.3), ("mgrid", 0.5)),
    serve_n_streams=(1, 2, 3),
    setup_repeats=1,
)


def smoke_context(tmp_path: Path, trace: bool = True) -> inprocess.Context:
    return inprocess.Context(
        seed=3,
        seconds=0.3,
        trace=trace,
        sizing=SMOKE,
        workdir=tmp_path,
        src_dir=ROOT / "src",
        trace_out=tmp_path / "trace.json",
    )


# -- the tail-percentile rule ------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    for n in (21, 100, 999, 1000, 1500, 30000):
        values = [float(i) for i in range(n)]
        log = common.OpLog(latencies_s=[v / 1e3 for v in values])
        metrics, info = common.latency_metrics(log)
        beyond = sum(v > metrics["latency_tail_ms"] + 1e-9 for v in values)
        assert beyond == info["samples_beyond"] == 10
        # one rank higher would leave only nine beyond
        assert metrics["latency_tail_ms"] == pytest.approx(values[n - 11])
        assert info["samples"] == n
        assert info["tail_percentile"] == pytest.approx(100.0 * (n - 10) / n, abs=1e-3)


def test_tail_falls_back_to_the_median_on_tiny_samples():
    for n in (1, 2, 10, 20):
        log = common.OpLog(latencies_s=[i / 1e3 for i in range(n)])
        metrics, info = common.latency_metrics(log)
        assert metrics["latency_tail_ms"] <= metrics["latency_p50_ms"] + 1e-9
        assert info["tail_percentile"] <= 60.0


def test_latency_metrics_report_the_percentile_and_sample_count():
    log = common.OpLog(latencies_s=[i / 1000 for i in range(1, 1001)])
    metrics, info = common.latency_metrics(log)
    assert info == {"tail_percentile": 99.0, "samples": 1000, "samples_beyond": 10}
    assert metrics["latency_p50_ms"] == pytest.approx(500.5)
    assert metrics["latency_tail_ms"] == pytest.approx(990.0)


# -- failure accounting ---------------------------------------------------------


def test_an_injected_wrong_stat_is_counted_as_failed(tmp_path):
    from repro.sim.runner import MissTraceCache

    ctx = smoke_context(tmp_path)
    tasks = inprocess.grid_tasks(ctx)[:3]
    _, reference = inprocess.run_cells(tasks, MissTraceCache())
    _, again = inprocess.run_cells(tasks, MissTraceCache())
    clean = common.OpLog(latencies_s=[0.0] * 3)
    inprocess.check_cells(tasks, again, reference, clean, "warm")
    assert clean.failed == 0

    stats = again[1].streams
    wrong = dataclasses.replace(stats, stream_hits=stats.stream_hits + 1)
    again[1] = dataclasses.replace(again[1], streams=wrong)
    dirty = common.OpLog(latencies_s=[0.0] * 3)
    inprocess.check_cells(tasks, again, reference, dirty, "warm")
    assert dirty.failed == 1

    outcome = common.Outcome(end_to_end={name: 1.0 for name in common.END_TO_END})
    outcome.absorb(dirty)
    line = outcome.result_line(trace=False)
    assert line["correct"] is False and line["failed"] == 1 and line["attempted"] == 3


def test_a_wrong_service_reply_is_counted_per_reply(tmp_path):
    from repro.service.api import config_from_payload
    from repro.sim.parallel import SweepTask, run_grid
    from repro.sim.runner import MissTraceCache
    from repro.trace.store import stats_to_dict

    ctx = smoke_context(tmp_path)
    task = SweepTask(key=("mgrid", 2), workload="mgrid", config=config_from_payload({"n_streams": 2}),
                     scale=serve.SERVE_SCALE, seed=ctx.seed)
    result = run_grid([task], jobs=1, cache=MissTraceCache())[0]
    reply = {
        "workload": "mgrid",
        "stats": json.loads(json.dumps(stats_to_dict(result.streams))),
        "l1": json.loads(json.dumps(dataclasses.asdict(result.l1))),
    }
    replies = serve.Replies(cells={("mgrid", 2): reply}, counts={("mgrid", 2): 4})
    clean = common.OpLog()
    serve.check_replies(ctx, replies, clean)
    assert clean.failed == 0

    reply["stats"]["counters"]["stream_hits"] += 1
    dirty = common.OpLog()
    serve.check_replies(ctx, replies, dirty)
    assert dirty.failed == 4


# -- names ----------------------------------------------------------------------


def test_every_metric_and_workload_name_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(common.END_TO_END) + list(common.PER_LAYER)
    for name in names:
        assert common.NAME_RE.fullmatch(name), name
    assert len(set(m["name"] for m in spec["end_to_end"] + spec["per_layer"])) == len(
        spec["end_to_end"] + spec["per_layer"]
    )


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["sweep-cold", "sweep-warm", "table4", "serve-zipf"]


# -- self time ----------------------------------------------------------------------


def _span(name, ts, dur, pid=1, tid=1, trace=None):
    event = {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid}
    if trace:
        event["args"] = {"trace_id": trace}
    return event


def test_self_time_subtracts_children_and_follows_the_chunk_wire():
    events = [
        _span("request.admit", 0, 100, trace="t"),
        _span("fleet.dispatch", 10, 80),
        _span("grid.run", 20, 50, pid=2),  # worker span, no trace id
        _span("l1.simulate", 25, 30, pid=2),
        _span("cell", 22, 45, pid=2, trace="t"),
    ]
    result = attribution.attribute(events, lambda s: s["name"] == "request.admit")
    assert result.layer_self_s["service"] == pytest.approx(20e-6)
    assert result.layer_self_s["fleet"] == pytest.approx(30e-6)
    assert result.layer_self_s["l1"] == pytest.approx(30e-6)
    assert result.layer_self_s["grid"] == pytest.approx(20e-6)
    assert result.attributed_s == pytest.approx(100e-6)


def test_benchmark_roots_hold_the_unattributed_time():
    events = [_span("bench.pass", 0, 100), _span("stream.replay", 10, 60), _span("store.save_result", 75, 5)]
    result = attribution.attribute(events, lambda s: s["name"].startswith("bench."))
    assert result.root_self_s == pytest.approx(35e-6)
    assert result.layer_self_s == {"secondary": pytest.approx(60e-6), "store.save": pytest.approx(5e-6)}


# -- smoke runs -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload",
    [inprocess.sweep_cold, inprocess.sweep_warm, inprocess.table4, serve.serve_zipf],
    ids=["sweep-cold", "sweep-warm", "table4", "serve-zipf"],
)
def test_smallest_size_smoke_run(tmp_path, workload):
    ctx = smoke_context(tmp_path)
    outcome = workload(ctx)
    assert outcome.failures == []
    for trace in (False, True):
        line = outcome.result_line(trace)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        for entry in line["metrics"].values():
            assert math.isfinite(entry["value"])
    assert outcome.end_to_end["ops_per_s"] > 0 and outcome.end_to_end["setup_s"] > 0
    assert 0.0 <= outcome.per_layer["unattributed_frac"] < 1.0
    from repro.obs.spans import validate_chrome_events

    validate_chrome_events(json.loads(ctx.trace_out.read_text())["traceEvents"])


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
