"""The paper's bottom line, end to end: equal-cost design comparison.

For each benchmark: take the conventional design (L1 + 2MB L2), compute
the bandwidth the stream design can buy *at the same per-processor
cost* (cost model), then price both designs with the timing model.  The
paper's conclusion — "the cost savings of stream buffers over large
caches can be applied to increase the main memory bandwidth, resulting
in a system with better overall performance" — should hold for the
regular scientific codes and fail for the temporal-reuse codes the
paper itself flags (widely-scattered indirections).
"""

from conftest import publish

from repro.caches.cache import CacheConfig
from repro.caches.secondary import simulate_secondary
from repro.core.config import StreamConfig
from repro.costs import bandwidth_affordable
from repro.reporting.tables import render_table
from repro.sim.vector import replay_streams
from repro.timing import TimingModel, l2_system_timing, stream_system_timing

BENCHES = ("embar", "mgrid", "cgm", "appsp", "applu", "spec77", "bdna", "mdg", "adm")
L2_MB = 2.0
STREAMING = ("embar", "mgrid", "cgm", "appsp", "spec77")


def test_equal_cost_comparison(benchmark, miss_cache, results_dir):
    bandwidth = bandwidth_affordable(L2_MB)
    l2_config = CacheConfig(
        capacity=int(L2_MB * (1 << 20)), assoc=4, block_size=64, policy="lru"
    )
    model = TimingModel()
    stream_model = model.with_bandwidth_factor(bandwidth)

    def run():
        out = {}
        for name in BENCHES:
            mt, summary = miss_cache.get(name)
            streams = replay_streams(StreamConfig.non_unit(czone_bits=19), mt)
            l2 = simulate_secondary(mt, l2_config, sample_every=4)
            l2_amat = l2_system_timing(summary, l2, model).amat
            stream_amat = stream_system_timing(summary, streams, stream_model).amat
            out[name] = (
                streams.hit_rate_percent,
                100 * l2.local_hit_rate,
                l2_amat,
                stream_amat,
                l2_amat / stream_amat,
            )
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = [[name, *[round(v, 2) for v in vals]] for name, vals in data.items()]
    rendered = render_table(
        ["bench", "stream hit %", "2MB L2 hit %", "L2 AMAT", "stream AMAT", "speedup"],
        rows,
        title=(
            f"Equal cost: 2MB-L2 design vs streams at {bandwidth:.1f}x bandwidth "
            "(the paper's conclusion, priced)"
        ),
    )
    publish(results_dir, "cost_comparison", rendered)

    speedups = {name: vals[4] for name, vals in data.items()}
    # The paper's claim holds for the regular scientific codes...
    winners = [name for name in STREAMING if speedups[name] > 1.0]
    assert len(winners) >= len(STREAMING) - 1, f"stream design won only {winners}"
    # ...and the geometric-mean verdict over the suite favours streams.
    product = 1.0
    for value in speedups.values():
        product *= value
    geomean = product ** (1.0 / len(speedups))
    assert geomean > 1.0
