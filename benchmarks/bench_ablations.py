"""Ablation benches for the design choices the paper fixes or sketches.

Not paper exhibits — these quantify the decisions around them:

* stream depth (the paper fixes 2 and calls the choice memory-system
  dependent);
* czone vs the minimum-delta stride scheme (Section 7 says they perform
  similarly; the paper picked czone on hardware cost);
* the Section 8 hit-definition caveat, via the ``min_lead`` latency
  model;
* partitioned I/D streams (Section 5 says partitioning was not
  beneficial);
* the paper's 10% time sampling (Section 4.1) versus full traces.
"""

import numpy as np
from conftest import publish

from repro.core.config import StreamConfig, StrideDetector
from repro.reporting.tables import render_table
from repro.sim.runner import run_result, simulate_l1
from repro.sim.sweep import sweep_depth
from repro.sim.vector import replay_streams
from repro.trace.sampling import time_sample
from repro.workloads import NON_UNIT_STRIDE_BENCHMARKS, get_workload


def test_depth_sweep(benchmark, miss_cache, results_dir):
    """Depth helps short-stream codes little and costs bandwidth."""
    names = ("embar", "appbt", "mdg")
    depths = (1, 2, 4, 8)

    def run():
        return {
            name: sweep_depth(name, depths, cache=miss_cache) for name in names
        }

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = []
    for name, by_depth in data.items():
        for depth, stats in by_depth.items():
            rows.append(
                [name, depth, stats.hit_rate_percent, stats.bandwidth.eb_measured]
            )
    rendered = render_table(
        ["bench", "depth", "hit %", "EB %"],
        rows,
        title="Ablation: stream depth (paper fixes depth = 2)",
    )
    publish(results_dir, "ablation_depth", rendered)

    for name in names:
        by_depth = data[name]
        # With the paper's always-available assumption, extra depth never
        # helps hit rate (only latency coverage, which is not modelled)...
        assert by_depth[8].hit_rate_percent <= by_depth[2].hit_rate_percent + 2
        # ...but it does cost bandwidth on reallocation-heavy codes.
        if name != "embar":
            assert (
                by_depth[8].bandwidth.eb_measured
                > by_depth[2].bandwidth.eb_measured
            )


def test_lookup_depth(benchmark, miss_cache, results_dir):
    """Quasi-associative lookup (extension): comparing a few entries per
    stream lets a stream survive the 'gappy miss stream' effect — a
    block that luckily survived in the L1 no longer strands the head."""
    names = ("mgrid", "applu", "buk")
    depth = 4

    def run():
        out = {}
        for name in names:
            rows = []
            for lookup_depth in (1, 2, 4):
                stats = run_result(
                    name,
                    StreamConfig(
                        n_streams=10,
                        depth=depth,
                        unit_filter_entries=16,
                        lookup_depth=lookup_depth,
                    ),
                    cache=miss_cache,
                ).streams
                rows.append(
                    (lookup_depth, stats.hit_rate_percent, stats.bandwidth.eb_measured)
                )
            out[name] = rows
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    table_rows = []
    for name, rows in data.items():
        for lookup_depth, hit, eb in rows:
            table_rows.append([name, lookup_depth, hit, eb])
    rendered = render_table(
        ["bench", "lookup depth", "hit %", "EB %"],
        table_rows,
        title="Ablation: quasi-associative stream lookup (depth-4 streams)",
    )
    publish(results_dir, "ablation_lookup_depth", rendered)

    for name, rows in data.items():
        hits = [hit for _, hit, _ in rows]
        # Deeper lookup never hurts and helps the gappy-stream codes.
        assert hits[1] >= hits[0] - 0.5, name
        assert hits[2] >= hits[0] - 0.5, name
    assert data["mgrid"][2][1] > data["mgrid"][0][1] + 1.5


def test_min_delta_vs_czone(benchmark, miss_cache, results_dir):
    """Section 7: the minimum-delta scheme performs similarly to czone."""

    def run():
        out = {}
        for name in NON_UNIT_STRIDE_BENCHMARKS:
            unit = run_result(name, StreamConfig.filtered(), cache=miss_cache).streams
            czone = run_result(
                name, StreamConfig.non_unit(czone_bits=19), cache=miss_cache
            ).streams
            min_delta = run_result(
                name,
                StreamConfig(
                    n_streams=10,
                    unit_filter_entries=16,
                    stride_detector=StrideDetector.MIN_DELTA,
                ),
                cache=miss_cache,
            ).streams
            out[name] = (
                unit.hit_rate_percent,
                czone.hit_rate_percent,
                min_delta.hit_rate_percent,
            )
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    rendered = render_table(
        ["bench", "unit only %", "czone %", "min-delta %"],
        [[name, *vals] for name, vals in data.items()],
        title="Ablation: czone vs minimum-delta stride detection",
    )
    publish(results_dir, "ablation_min_delta", rendered)

    for name, (unit, czone, min_delta) in data.items():
        # Both schemes must beat unit-only on the strided benchmarks...
        assert czone > unit + 5, name
        assert min_delta > unit + 5, name


def test_min_lead_latency_model(benchmark, miss_cache, results_dir):
    """Section 8 caveat: counting in-flight matches as hits flatters
    streams; the min_lead model bounds how much."""
    names = ("mgrid", "buk", "spec77")

    def run():
        out = {}
        for name in names:
            rows = []
            for lead in (0, 1, 2, 4):
                stats = run_result(
                    name,
                    StreamConfig.filtered().with_(min_lead=lead),
                    cache=miss_cache,
                ).streams
                rows.append((lead, stats.hit_rate_percent, stats.in_flight_matches))
            out[name] = rows
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    table_rows = []
    for name, rows in data.items():
        for lead, hit, in_flight in rows:
            table_rows.append([name, lead, hit, in_flight])
    rendered = render_table(
        ["bench", "min lead", "hit %", "in-flight matches"],
        table_rows,
        title="Ablation: prefetch-latency (min_lead) model of the Section 8 caveat",
    )
    publish(results_dir, "ablation_min_lead", rendered)

    for name, rows in data.items():
        hits = [hit for _, hit, _ in rows]
        assert hits == sorted(hits, reverse=True), name  # monotone decline
        # Depth-2 streams cover a lead of 1-2 well: the drop is modest.
        assert hits[0] - hits[1] < 15, name


def test_partitioned_streams(benchmark, miss_cache, results_dir):
    """Section 5: partitioning I/D streams was not beneficial (the
    I-cache leaves too few instruction misses to matter)."""
    names = ("mgrid", "buk")

    def run():
        out = {}
        for name in names:
            workload = get_workload(name)
            from repro.workloads.instructions import with_instructions

            workload._trace = with_instructions(workload.trace(), per_access=1)
            miss_trace, _ = simulate_l1(workload)
            unified = replay_streams(StreamConfig.filtered(), miss_trace)
            partitioned = replay_streams(
                StreamConfig.filtered().with_(partitioned=True, i_streams=2), miss_trace
            )
            out[name] = (
                unified.hit_rate_percent,
                partitioned.hit_rate_percent,
                unified.ifetch_misses,
                unified.demand_misses,
            )
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    rendered = render_table(
        ["bench", "unified %", "partitioned %", "I-misses", "all misses"],
        [[name, *vals] for name, vals in data.items()],
        title="Ablation: unified vs partitioned I/D streams (MacroTek variant)",
    )
    publish(results_dir, "ablation_partitioned", rendered)

    for name, (unified, partitioned, i_misses, demand) in data.items():
        # Instruction misses are a negligible share (the paper's reason).
        assert i_misses / demand < 0.02, name
        assert abs(unified - partitioned) < 3, name


def test_time_sampling_validation(benchmark, miss_cache, results_dir):
    """The paper's 10k-on/90k-off sampling barely moves stream metrics."""
    names = ("buk", "trfd")

    def run():
        out = {}
        for name in names:
            workload = get_workload(name)
            full_mt, _ = simulate_l1(workload)
            full = replay_streams(StreamConfig.filtered(), full_mt)

            sampled_workload = get_workload(name)
            sampled_workload._trace = time_sample(workload.trace())
            sampled_mt, _ = simulate_l1(sampled_workload)
            sampled = replay_streams(StreamConfig.filtered(), sampled_mt)
            out[name] = (full.hit_rate_percent, sampled.hit_rate_percent)
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    rendered = render_table(
        ["bench", "full-trace hit %", "10%-sampled hit %"],
        [[name, *vals] for name, vals in data.items()],
        title="Ablation: time sampling (Section 4.1) vs full traces",
    )
    publish(results_dir, "ablation_sampling", rendered)

    for name, (full, sampled) in data.items():
        assert abs(full - sampled) < 12, name
