"""The paper's conclusion, priced: streams + bandwidth vs a big L2.

The paper argues that replacing the secondary cache with stream buffers
and spending the savings on main-memory bandwidth yields "a system with
better overall performance".  This bench evaluates both designs under
the timing extension across a bandwidth sweep:

* the conventional design: L1 + 512KB L2 + baseline-bandwidth memory;
* the paper's design: L1 + filtered streams + memory with 1x / 2x / 4x
  the baseline bandwidth (the money saved on SRAM buys the extra).

Expected shape: on streaming scientific codes the stream design
overtakes the L2 design once it holds any bandwidth advantage, and the
crossover arrives earlier the better the workload streams.
"""

from conftest import publish

from repro.caches.secondary import simulate_secondary
from repro.caches.cache import CacheConfig
from repro.core.config import StreamConfig
from repro.reporting.tables import render_table
from repro.sim.vector import replay_streams
from repro.timing import TimingModel, l2_system_timing, stream_system_timing

BENCHES = ("mgrid", "cgm", "appsp", "bdna", "mdg")
L2_CONFIG = CacheConfig(capacity=512 * 1024, assoc=4, block_size=64, policy="lru")
BANDWIDTH_FACTORS = (1.0, 2.0, 4.0)


def test_timing_tradeoff(benchmark, miss_cache, results_dir):
    base_model = TimingModel()

    def run():
        out = {}
        for name in BENCHES:
            mt, summary = miss_cache.get(name)
            streams = replay_streams(StreamConfig.non_unit(czone_bits=19), mt)
            l2 = simulate_secondary(mt, L2_CONFIG)
            l2_report = l2_system_timing(summary, l2, base_model)
            stream_reports = {
                factor: stream_system_timing(
                    summary, streams, base_model.with_bandwidth_factor(factor)
                )
                for factor in BANDWIDTH_FACTORS
            }
            out[name] = (summary, streams, l2, l2_report, stream_reports)
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)

    rows = []
    for name, (summary, streams, l2, l2_report, stream_reports) in data.items():
        rows.append(
            [
                name,
                streams.hit_rate_percent,
                100 * l2.local_hit_rate,
                l2_report.amat,
                stream_reports[1.0].amat,
                stream_reports[2.0].amat,
                stream_reports[4.0].amat,
            ]
        )
    rendered = render_table(
        [
            "bench",
            "stream hit %",
            "512KB-L2 hit %",
            "L2 AMAT",
            "streams 1x BW",
            "streams 2x BW",
            "streams 4x BW",
        ],
        rows,
        title="Timing: conventional L2 design vs streams + extra bandwidth (AMAT, cycles)",
        precision=2,
    )
    publish(results_dir, "timing_tradeoff", rendered)

    for name, (_, streams, l2, l2_report, stream_reports) in data.items():
        # More bandwidth monotonically helps the stream design.
        amats = [stream_reports[f].amat for f in BANDWIDTH_FACTORS]
        assert amats == sorted(amats, reverse=True), name
        # At 4x bandwidth, the stream design wins wherever the streams'
        # hit rate is at least in the L2's neighbourhood.
        if streams.hit_rate >= l2.local_hit_rate - 0.10:
            assert stream_reports[4.0].amat < l2_report.amat, name

    # The flagship case: a streaming code where streams already match
    # the L2's hit rate wins at equal bandwidth too (cheaper hits).
    _, streams, l2, l2_report, stream_reports = data["cgm"]
    assert stream_reports[1.0].amat < l2_report.amat * 1.1
