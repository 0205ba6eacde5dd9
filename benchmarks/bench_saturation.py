"""Section 5's saturation claim, isolated.

"The number of streams at which the hit rate saturates is related to
the number of unique array references in the program loops."  This
bench builds loops with exactly K interleaved array walks and measures
the stream count where the hit rate saturates: it should track K.
"""

from conftest import publish

from repro.core.config import StreamConfig
from repro.reporting.tables import render_table
from repro.sim.runner import simulate_l1
from repro.sim.vector import replay_streams
from repro.trace.events import Trace
from repro.workloads.base import BenchmarkInfo, Workload
from repro.workloads.kernels import ascending, loop, read


class _KWalks(Workload):
    """K interleaved unit-stride walks (not registered; bench-local)."""

    info = BenchmarkInfo(name="kwalks", suite="micro", description="K walks")

    ELEMENTS = 16384

    def __init__(self, k: int):
        super().__init__()
        self.k = k

    def build(self) -> Trace:
        columns = []
        for index in range(self.k):
            array = self.arena.alloc_words(f"a{index}", self.ELEMENTS)
            columns.append(read(ascending(array.base, self.ELEMENTS)))
        return loop(columns)


def saturation_point(hits_by_n, threshold=0.95):
    """Smallest stream count reaching 95% of the 12-stream hit rate."""
    final = hits_by_n[max(hits_by_n)]
    for n in sorted(hits_by_n):
        if hits_by_n[n] >= threshold * final:
            return n
    return max(hits_by_n)


def test_saturation_tracks_walk_count(benchmark, results_dir):
    walk_counts = (2, 4, 6, 8)
    stream_counts = tuple(range(1, 13))

    def run():
        out = {}
        for k in walk_counts:
            miss_trace, _ = simulate_l1(_KWalks(k))
            hits = {}
            for n in stream_counts:
                stats = replay_streams(StreamConfig.jouppi(n_streams=n), miss_trace)
                hits[n] = stats.hit_rate_percent
            out[k] = hits
        return out

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = []
    for k, hits in data.items():
        rows.append([k, saturation_point(hits), hits[1], hits[k], hits[12]])
    rendered = render_table(
        ["array walks", "saturation streams", "hit @1", "hit @K", "hit @12"],
        rows,
        title="Section 5 claim: saturation stream count tracks loop array count",
    )
    publish(results_dir, "saturation", rendered)

    for k, hits in data.items():
        sat = saturation_point(hits)
        # Saturation arrives at the walk count (give or take one: the
        # LRU needs no slack for pure round-robin walks).
        assert k - 1 <= sat <= k + 1, f"K={k}: saturated at {sat}"
        # Below K streams the LRU thrashes round-robin walks badly.
        assert hits[max(1, k - 1)] < 50, f"K={k}"
        assert hits[12] > 95, f"K={k}"
