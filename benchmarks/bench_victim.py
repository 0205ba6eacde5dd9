"""Ablation: direct-mapped L1 + Jouppi victim cache (Section 4.1 aside).

The paper used a 4-way L1 so that conflict misses would not pollute the
stream results, noting that "in a direct-mapped cache, Jouppi's victim
buffers may also be needed".  This bench verifies that claim: with a
direct-mapped L1, conflict misses are irregular and depress the stream
hit rate; a 4-entry victim buffer recovers most of the 4-way result.
"""

from conftest import publish

from repro.caches.cache import Cache, CacheConfig
from repro.caches.victim import CacheWithVictim, VictimCacheConfig
from repro.core.config import StreamConfig
from repro.reporting.tables import render_table
from repro.sim.vector import replay_streams
from repro.trace.compress import compress_consecutive
from repro.workloads import get_workload


def _run(name, l1_kind):
    workload = get_workload(name)
    trace = compress_consecutive(workload.trace()).trace
    if l1_kind == "4-way":
        cache = Cache(CacheConfig.paper_l1())
        miss_trace = cache.simulate(trace)
        misses = cache.stats.misses
    elif l1_kind == "direct":
        cache = Cache(
            CacheConfig(capacity=64 * 1024, assoc=1, block_size=64, policy="lru")
        )
        miss_trace = cache.simulate(trace)
        misses = cache.stats.misses
    else:  # direct + victim
        system = CacheWithVictim(
            CacheConfig(capacity=64 * 1024, assoc=1, block_size=64, policy="lru"),
            VictimCacheConfig(entries=4),
        )
        miss_trace = system.simulate(trace)
        misses = miss_trace.n_misses
    stats = replay_streams(StreamConfig.filtered(), miss_trace)
    return misses, stats.hit_rate_percent


def test_victim_cache(benchmark, miss_cache, results_dir):
    names = ("mgrid", "buk")

    def run():
        return {
            name: {kind: _run(name, kind) for kind in ("4-way", "direct", "direct+victim")}
            for name in names
        }

    data = benchmark.pedantic(run, iterations=1, rounds=1)
    rows = []
    for name, by_kind in data.items():
        for kind, (misses, hit) in by_kind.items():
            rows.append([name, kind, misses, hit])
    rendered = render_table(
        ["bench", "L1", "L1 misses", "stream hit %"],
        rows,
        title="Ablation: direct-mapped L1 with and without a victim cache",
    )
    publish(results_dir, "ablation_victim", rendered)

    for name, by_kind in data.items():
        direct_misses = by_kind["direct"][0]
        victim_misses = by_kind["direct+victim"][0]
        four_way_misses = by_kind["4-way"][0]
        # Conflicts inflate the direct-mapped miss count...
        assert direct_misses > four_way_misses, name
        # ...and the victim buffer claws a large share back.
        recovered = (direct_misses - victim_misses) / max(
            direct_misses - four_way_misses, 1
        )
        assert recovered > 0.3, f"{name}: victim recovered only {recovered:.0%}"
