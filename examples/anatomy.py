"""Dissect a benchmark: why does it get the hit rate it gets?

Combines the diagnostic layers on one workload: the miss-stream run
decomposition, the closed-form predictions, the simulated configurations
and the stream-length buckets — the full chain from access pattern to
paper-style result.

Usage:
    python examples/anatomy.py [workload]
"""

import sys

from repro.analysis import decompose_runs, predict_no_filter, predict_with_filter
from repro.core import StreamConfig
from repro.core.lengths import LENGTH_BUCKETS, bucket_label
from repro.sim import MissTraceCache, replay_streams


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "appbt"
    cache = MissTraceCache()
    miss_trace, summary = cache.get(workload)

    print(f"workload: {workload}")
    print(f"  {summary.trace_length} references -> {summary.misses} L1 misses "
          f"({100 * summary.miss_rate:.1f}%), {summary.writebacks} write-backs")
    print()

    unbounded = decompose_runs(miss_trace)
    bounded = decompose_runs(miss_trace, max_open=10)
    print("miss-stream anatomy (interleaved-run decomposition):")
    print(f"  mean run length    : {unbounded.mean_length:.1f} blocks "
          f"(ideal engine) / {bounded.mean_length:.1f} (10 open runs)")
    for label, pred in (("isolated (1)", lambda l: l == 1),
                        ("short (2-5)", lambda l: 2 <= l <= 5),
                        ("medium (6-20)", lambda l: 6 <= l <= 20),
                        ("long (>20)", lambda l: l > 20)):
        print(f"  misses in {label:13s}: {100 * bounded.misses_in_runs(pred):5.1f}%")
    print()

    print("closed-form predictions (ten open runs):")
    plain_pred = predict_no_filter(bounded)
    filt_pred = predict_with_filter(bounded)
    print(f"  no filter   : hit {plain_pred.hit_rate_percent:5.1f}%  EB {plain_pred.eb:6.1f}%")
    print(f"  with filter : hit {filt_pred.hit_rate_percent:5.1f}%  EB {filt_pred.eb:6.1f}%")
    print()

    print("simulation (10 streams, depth 2):")
    for label, config in (("no filter", StreamConfig.jouppi()),
                          ("with filter", StreamConfig.filtered()),
                          ("filter + czone", StreamConfig.non_unit(czone_bits=19))):
        stats = replay_streams(config, miss_trace)
        print(f"  {label:14s}: hit {stats.hit_rate_percent:5.1f}%  "
              f"EB {stats.bandwidth.eb_measured:6.1f}%")
    stats = replay_streams(StreamConfig.jouppi(), miss_trace)
    row = stats.lengths.as_row()
    print()
    print("stream lengths, % of hits (Table 3 buckets):")
    for bucket, value in zip(LENGTH_BUCKETS, row):
        bar = "#" * int(round(value / 2))
        print(f"  {bucket_label(bucket):>6s} |{bar} {value:.0f}%")


if __name__ == "__main__":
    main()
