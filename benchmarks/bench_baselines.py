"""Related-work comparison: stream buffers vs Section 2's alternatives.

Not a paper exhibit — the paper only *argues* against its related work.
This bench puts the argument to the test on the same miss streams:

* **OBL (tagged)**, Smith: one-block lookahead into an associative
  buffer — no multi-block runahead, no stride capability.  Note its
  structural weakness is invisible to a pure hit-rate metric: an OBL
  "hit" was prefetched by the *immediately preceding* miss, so it
  arrives with essentially no latency lead, while depth-2 streams run
  ahead (the paper's Section 8 discussion).
* **Prefetching cache**, Rambus: a ~1KB associative cache with
  lookahead fill — adds short-range temporal reuse.
* **RPT**, Baer & Chen: PC-indexed stride prediction — given *oracle*
  PCs, the on-chip scheme the paper says commodity parts cannot export.

Expected shapes: unfiltered streams match or beat the PC-free
alternatives nearly everywhere; the czone configuration wins decisively
on the strided codes; oracle-PC RPT is strong exactly there too — which
is why the paper needed a PC-free stride scheme.
"""

from conftest import publish

from repro.baselines import (
    OneBlockLookahead,
    PrefetchingCache,
    ReferencePredictionTable,
)
from repro.core.config import StreamConfig
from repro.reporting.tables import render_table
from repro.sim.runner import MissTraceCache
from repro.sim.vector import replay_streams

BENCHES = ("embar", "mgrid", "cgm", "buk", "appsp", "appbt", "trfd", "mdg")


def test_baseline_comparison(benchmark, results_dir):
    pc_cache = MissTraceCache(keep_pcs=True)

    def run():
        out = {}
        for name in BENCHES:
            mt, _ = pc_cache.get(name)
            plain = replay_streams(StreamConfig.jouppi(), mt)
            czone = replay_streams(StreamConfig.non_unit(czone_bits=19), mt)
            obl = OneBlockLookahead(entries=16, tagged=True).run(mt)
            pcache = PrefetchingCache(blocks=16).run(mt)
            rpt = ReferencePredictionTable(table_entries=64, buffer_entries=32).run(mt)
            out[name] = {
                "streams": plain.hit_rate_percent,
                "streams+czone": czone.hit_rate_percent,
                "obl": obl.hit_rate_percent,
                "prefetch-cache": pcache.hit_rate_percent,
                "rpt": rpt.hit_rate_percent,
            }
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    keys = ("streams", "streams+czone", "obl", "prefetch-cache", "rpt")
    rows = [[name, *[round(vals[k], 1) for k in keys]] for name, vals in data.items()]
    rendered = render_table(
        ["bench", "streams %", "+czone %", "OBL %", "pf-cache %", "RPT(oracle) %"],
        rows,
        title="Related work: hit rate over the same L1 miss streams",
    )
    publish(results_dir, "baseline_comparison", rendered)

    wins = 0
    for name, vals in data.items():
        best_streams = max(vals["streams"], vals["streams+czone"])
        best_pcfree_rival = max(vals["obl"], vals["prefetch-cache"])
        # The best stream configuration never loses meaningfully to the
        # PC-free related work...
        assert best_streams >= best_pcfree_rival - 6, name
        if best_streams >= best_pcfree_rival - 1.5:
            wins += 1
    # ...and wins or ties on most benchmarks.  (The associative
    # lookahead buffers are genuinely competitive on a pure hit-rate
    # metric; the streams' structural advantages — multi-block runahead
    # for latency, stride detection — show in the strided rows and in
    # the min_lead ablation.)
    assert wins >= len(BENCHES) - 3

    # The strided codes are where streams+czone pull far ahead of the
    # lookahead schemes.
    for name in ("appsp", "trfd"):
        assert data[name]["streams+czone"] > data[name]["obl"] + 10, name

    # The oracle-PC RPT shines on the same codes — the reason the paper
    # needed a PC-free stride scheme.
    assert data["appsp"]["rpt"] > 60
    assert data["trfd"]["rpt"] > data["trfd"]["obl"]
