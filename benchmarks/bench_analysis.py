"""Analytic model vs simulator across the full benchmark suite.

Two closed-form predictions per benchmark:

* **Unbounded buffers** — runs may pause indefinitely and resume; an
  upper bound on any stream engine.
* **Ten open runs (LRU)** — runs beyond ten are closed least-recently-
  extended first: the arithmetic shadow of the ten-buffer bank.

The bounded prediction should match the simulator almost exactly (it
encodes the same structure with none of the simulator's machinery), and
the gap between the two predictions *is* the stream-count pressure that
Figure 3's saturation argument is about.
"""

from conftest import publish

from repro.analysis import decompose_runs, predict_no_filter, predict_with_filter
from repro.analytic.model import fa_hit_rate
from repro.analytic.profile import profile_miss_trace
from repro.caches.cache import CacheConfig
from repro.caches.secondary import simulate_secondary
from repro.core.config import StreamConfig
from repro.reporting.tables import render_table
from repro.sim.vector import replay_streams
from repro.workloads import PAPER_BENCHMARKS


def test_analysis_vs_simulation(benchmark, miss_cache, results_dir):
    def run():
        out = {}
        for name in PAPER_BENCHMARKS:
            mt, _ = miss_cache.get(name)
            unbounded = decompose_runs(mt)
            bounded = decompose_runs(mt, max_open=10)
            plain_sim = replay_streams(StreamConfig.jouppi(), mt)
            filt_sim = replay_streams(StreamConfig.filtered(), mt)
            out[name] = {
                "bound": predict_no_filter(unbounded).hit_rate_percent,
                "pred10": predict_no_filter(bounded).hit_rate_percent,
                "sim": plain_sim.hit_rate_percent,
                "pred10_filter": predict_with_filter(bounded).hit_rate_percent,
                "sim_filter": filt_sim.hit_rate_percent,
            }
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = [
        [
            name,
            round(vals["bound"], 1),
            round(vals["pred10"], 1),
            round(vals["sim"], 1),
            round(vals["pred10_filter"], 1),
            round(vals["sim_filter"], 1),
        ]
        for name, vals in data.items()
    ]
    rendered = render_table(
        ["bench", "bound %", "pred(10) %", "sim %", "pred+filt %", "sim+filt %"],
        rows,
        title="Analytic predictions vs 10-stream simulation",
    )
    publish(results_dir, "analysis_vs_sim", rendered)

    for name, vals in data.items():
        # The unbounded decomposition upper-bounds everything.
        assert vals["sim"] <= vals["bound"] + 4.0, name
        # The ten-open-run arithmetic reproduces the simulator.
        assert abs(vals["pred10"] - vals["sim"]) < 3.0, name
        # The filtered arithmetic tracks too (allocation-start details
        # differ slightly, so the band is wider).
        assert abs(vals["pred10_filter"] - vals["sim_filter"]) < 8.0, name


def test_stack_distance_vs_l2_simulation(benchmark, miss_cache, results_dir):
    """Mattson curve vs simulated L2: the fully-associative LRU miss
    curve of the L2-visible stream (demand misses *and* write-backs —
    both install blocks) tracks the same-capacity 4-way simulation
    closely — Table 4's capacity story from one analysis pass."""
    names = ("mdg", "cgm", "buk")
    capacities = (256 * 1024, 1 << 20)

    def run():
        out = {}
        for name in names:
            mt, _ = miss_cache.get(name)
            profile = profile_miss_trace(mt, (64,))[64]
            rows = []
            for capacity in capacities:
                analytic_hit = fa_hit_rate(profile, capacity)
                simulated = simulate_secondary(
                    mt,
                    CacheConfig(capacity=capacity, assoc=4, block_size=64, policy="lru"),
                    sample_every=1,
                )
                rows.append((capacity, analytic_hit, simulated.local_hit_rate))
            out[name] = rows
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    table_rows = []
    for name, rows in data.items():
        for capacity, analytic, simulated in rows:
            table_rows.append(
                [name, capacity // 1024, 100 * analytic, 100 * simulated]
            )
    rendered = render_table(
        ["bench", "L2 KB", "Mattson hit %", "4-way sim hit %"],
        table_rows,
        title="Stack-distance curve vs simulated L2 (fully-assoc LRU bound)",
    )
    publish(results_dir, "analysis_stack_vs_l2", rendered)

    for name, rows in data.items():
        # The analytic curve tracks the simulation per capacity...
        for capacity, analytic, simulated in rows:
            assert abs(analytic - simulated) < 0.15, (name, capacity)
        # ...and both agree on the *direction* capacity growth takes.
        deltas = [(rows[1][1] - rows[0][1]), (rows[1][2] - rows[0][2])]
        assert (deltas[0] >= -0.02) == (deltas[1] >= -0.02), name
