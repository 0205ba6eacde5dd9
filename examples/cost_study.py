"""The 1K-processor argument: gigabytes of SRAM or bandwidth?

Scales the per-processor design comparison up to a parallel machine
(the paper's motivating context) and prints the bill of materials each
way, plus the equal-cost performance verdict for a chosen workload.

Usage:
    python examples/cost_study.py [workload] [processors]
"""

import sys

from repro.caches.cache import CacheConfig
from repro.caches.secondary import simulate_secondary
from repro.core.config import StreamConfig
from repro.costs import bandwidth_affordable, l2_design_cost, stream_design_cost
from repro.sim import MissTraceCache, replay_streams
from repro.timing import TimingModel, l2_system_timing, stream_system_timing

L2_MB = 2.0


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "cgm"
    processors = int(sys.argv[2]) if len(sys.argv) > 2 else 1024

    l2_bill = l2_design_cost(L2_MB).scaled(processors)
    bandwidth = bandwidth_affordable(L2_MB)
    stream_bill = stream_design_cost(bandwidth).scaled(processors)

    print(f"machine: {processors} processors")
    print(f"  conventional design: {L2_MB:g}MB L2 per node")
    print(f"    -> {l2_bill.sram_mb / 1024:.1f} GB of secondary-cache SRAM machine-wide")
    print(f"    -> cost {l2_bill.total:.0f} units")
    print(f"  stream design: no L2, {bandwidth:.1f}x memory bandwidth per node")
    print(f"    -> cost {stream_bill.total:.0f} units (same by construction)")
    print()

    cache = MissTraceCache()
    miss_trace, summary = cache.get(workload)
    streams = replay_streams(StreamConfig.non_unit(czone_bits=19), miss_trace)
    l2 = simulate_secondary(
        miss_trace,
        CacheConfig(capacity=int(L2_MB * (1 << 20)), assoc=4, block_size=64, policy="lru"),
        sample_every=4,
    )
    model = TimingModel()
    l2_amat = l2_system_timing(summary, l2, model).amat
    stream_amat = stream_system_timing(
        summary, streams, model.with_bandwidth_factor(bandwidth)
    ).amat

    print(f"per-node performance on {workload}:")
    print(f"  L2 design     : {100 * l2.local_hit_rate:.0f}% L2 hit, AMAT {l2_amat:.2f} cycles")
    print(f"  stream design : {streams.hit_rate_percent:.0f}% stream hit, AMAT {stream_amat:.2f} cycles")
    speedup = l2_amat / stream_amat
    print(f"  equal-cost speedup: {speedup:.2f}x "
          f"({'streams win' if speedup > 1 else 'L2 wins'})")


if __name__ == "__main__":
    main()
