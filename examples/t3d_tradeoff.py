"""Price the paper's conclusion: streams + bandwidth vs a big L2.

The paper's target systems "have memory bandwidth sufficiently greater
than the load data requirements of the processor" (its example: the
Cray T3D, 600 MB/s of raw memory bandwidth against 320 MB/s of peak
processor load bandwidth).  This example uses the timing extension to
ask: for a given workload, at what bandwidth advantage does the
L2-less stream design beat a conventional 512KB-L2 design?

Usage:
    python examples/t3d_tradeoff.py [workload]
"""

import sys

from repro.caches.cache import CacheConfig
from repro.caches.secondary import simulate_secondary
from repro.core.config import StreamConfig
from repro.sim import MissTraceCache, replay_streams
from repro.timing import TimingModel, l2_system_timing, stream_system_timing


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "appsp"
    cache = MissTraceCache()
    miss_trace, summary = cache.get(workload)

    streams = replay_streams(StreamConfig.non_unit(czone_bits=19), miss_trace)
    l2 = simulate_secondary(
        miss_trace, CacheConfig(capacity=512 * 1024, assoc=4, block_size=64, policy="lru")
    )
    model = TimingModel()
    l2_report = l2_system_timing(summary, l2, model)

    print(f"workload: {workload}")
    print(f"  stream hit rate : {streams.hit_rate_percent:.1f}%  "
          f"(EB {streams.bandwidth.eb_measured:.0f}%)")
    print(f"  512KB L2 hit    : {100 * l2.local_hit_rate:.1f}%")
    print(f"  L2 design AMAT  : {l2_report.amat:.2f} cycles "
          f"(channel {100 * l2_report.utilisation:.0f}% busy)")
    print()
    print(f"{'bandwidth':>10s} {'stream AMAT':>12s} {'speedup':>8s}")
    crossover = None
    for factor in (0.5, 1.0, 1.5, 1.875, 2.0, 3.0, 4.0):
        report = stream_system_timing(summary, streams, model.with_bandwidth_factor(factor))
        speedup = l2_report.amat / report.amat
        marker = "  <- T3D-like ratio (600/320)" if factor == 1.875 else ""
        if crossover is None and speedup >= 1.0:
            crossover = factor
        print(f"{factor:9.2f}x {report.amat:11.2f} {speedup:8.2f}{marker}")
    print()
    if crossover is not None:
        print(f"the stream design wins from ~{crossover:g}x bandwidth onwards;")
        print("the SRAM savings of dropping the L2 are what buy that bandwidth.")
    else:
        print("the L2 design wins at every swept bandwidth: this workload's")
        print("temporal reuse is exactly what streams cannot capture.")


if __name__ == "__main__":
    main()
