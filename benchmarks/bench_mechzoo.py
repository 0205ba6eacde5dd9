"""Perf/parity gate for the PR 9 mechanism zoo.

Times the ``mechzoo`` exhibit (min matching L2 per secondary mechanism;
see docs/mechanisms.md) over a reduced workload slice, cold versus warm:

1. **Cold** — empty trace store and miss-trace cache; every cell pays
   L1 simulation plus mechanism replays.
2. **Warm** — the same cache/store re-used; the exhibit must get
   cheaper from the stored traces and mechanism results.

Gates: the warm pass is strictly faster than the cold pass, every
reported match is witnessed by the ladder point of its size reaching
the target, and the hybrid columns never match a *larger* L2 than plain
streams on the same cell (a front buffer can only remove misses ahead
of the stream prefetcher).  Run via ``make zoo-bench``.
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro.reporting.experiments import default_zoo, mechzoo, render_mechzoo
from repro.sim.runner import MissTraceCache
from repro.trace.store import TraceStore

#: Reduced slice: one clearly streamable workload, one cache-friendly
#: one, and one paper benchmark at its small Table 4 scale.
CELLS = (("stride", 0.05), ("random", 0.25), ("cgm", 0.25))

def _size_rank(row) -> int:
    """Matched size in bytes; an unmatched cell ranks above every size."""
    size = row.match.matched_size
    return (1 << 60) if size is None else int(size)


def run_exhibit(cache: MissTraceCache):
    names = [name for name, _ in CELLS]
    scales = {name: (scale,) for name, scale in CELLS}
    started = time.perf_counter()
    rows = mechzoo(names=names, scales=scales, cache=cache)
    return rows, time.perf_counter() - started


def main() -> int:
    failures: list = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-mechzoo-") as store_dir:
        store = TraceStore(store_dir)
        cache = MissTraceCache(store=store)
        cold_rows, cold_s = run_exhibit(cache)
        warm_rows, warm_s = run_exhibit(cache)

    print(render_mechzoo(warm_rows))
    speedup = cold_s / warm_s if warm_s else float("inf")
    print(f"\ncold {cold_s:.2f}s  warm {warm_s:.2f}s  ({speedup:.1f}x)")

    if warm_rows != cold_rows:
        failures.append("warm exhibit rows differ from the cold run")
    if warm_s >= cold_s:
        failures.append(
            f"warm pass ({warm_s:.2f}s) not faster than cold ({cold_s:.2f}s)"
        )
    for row in warm_rows:
        match = row.match
        if match.matched_size is not None and not any(
            point.size == match.matched_size
            and point.hit_rate >= match.stream_stats.hit_rate
            for point in match.l2_hit_rates
        ):
            failures.append(
                f"{row.name}@{row.scale:g} {row.mechanism}: match not witnessed"
                " by its ladder point"
            )

    by_cell = {(r.name, r.scale, r.mechanism): r for r in warm_rows}
    for label in default_zoo():
        if not label.endswith("+streams"):
            continue
        for name, scale in CELLS:
            hybrid = by_cell.get((name, scale, label))
            streams = by_cell.get((name, scale, "streams"))
            if hybrid is None or streams is None:
                continue
            if _size_rank(hybrid) > _size_rank(streams):
                failures.append(
                    f"{name}@{scale:g}: {label} matched {hybrid.min_l2} but"
                    f" plain streams matched {streams.min_l2}"
                )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
