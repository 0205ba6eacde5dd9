"""Per-layer self time from spans, and the instrumentation that adds them.

The program already records spans at most layer boundaries
(``repro.obs.spans``).  For the traced run the benchmark switches the
tracer on and wraps a few public functions from outside, so that every
layer named in the metric catalogue has a span and a count:

* ``Workload.trace`` (first build only) -> ``workloads.build``;
* ``simulate_l1`` as the runner calls it -> L1 access and miss counts;
* ``replay_streams``/``replay_secondary`` as the grid, the Table 4
  search and the analytic screen call them -> ``secondary.replay`` with
  replay, event and scalar-engine counts.

Self time of a span is its duration minus the part of it covered by its
children.  A span's parent is the innermost span that contains it in
time and runs on the same thread, or carries the same request trace id,
or -- for a span that found neither -- is a ``fleet.dispatch`` RPC (the
chunk that shipped it to a worker).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Span-name prefix -> layer.  Longest matching prefix wins; names not
#: listed (the benchmark's own ``bench.*`` roots) belong to no layer.
LAYER_PREFIXES = {
    "workloads.": "workloads",
    "l1.": "l1",
    "stream.replay": "secondary",
    "mech.replay": "secondary",
    "secondary.": "secondary",
    "streams.witness": "secondary",
    "l2.": "l2",
    "analytic.": "analytic",
    "store.save": "store.save",
    "store.load": "store.load",
    "grid.": "grid",
    "cell": "grid",
    "request.": "service",
    "coalesce.": "service",
    "fleet.": "fleet",
}

#: Layer -> the per-layer time metric its self time is reported under.
LAYER_METRIC = {
    "workloads": "workloads.build_s",
    "l1": "l1.simulate_s",
    "secondary": "secondary.replay_s",
    "l2": "l2.probe_s",
    "analytic": "analytic.profile_s",
    "store.save": "store.save_s",
    "store.load": "store.load_s",
    "grid": "grid.self_s",
    "service": "service.self_s",
    "fleet": "fleet.self_s",
}

#: Blocking steps with no span of their own today; their time shows up
#: as the self time of the enclosing span named here (or as unattributed
#: time when that is a root).
UNSPANNED_STEPS = (
    ("service result encoding and HTTP framing", "outside request.admit (unattributed)"),
    ("chunk-wire encode/decode and worker HTTP handling", "fleet.dispatch self time"),
    ("micro-batcher linger and coalescer waits", "request.admit self time"),
    ("run_grid bookkeeping and MissTraceCache lookups", "cell / grid.run self time"),
    ("analytic size-ladder estimates (best_estimate_at_size)", "bench.search self time"),
    ("workload trace build inside fleet workers", "l1.simulate self time on the worker"),
)


#: Spans whose self time is time between their children: waits and
#: unspanned steps.  The gap report lists their measured self time.
CONTAINER_SPANS = (
    "bench.pass", "bench.search", "grid.run", "grid.chunk", "cell",
    "request.admit", "fleet.batch", "fleet.dispatch",
)


def layer_of(name: str) -> Optional[str]:
    best: Optional[Tuple[int, str]] = None
    for prefix, layer in LAYER_PREFIXES.items():
        if name.startswith(prefix) and (best is None or len(prefix) > best[0]):
            best = (len(prefix), layer)
    return best[1] if best else None


# -- instrumentation --------------------------------------------------------


@dataclass
class LayerCounts:
    """Counts recorded by the wrappers while the traced window runs."""

    accesses_built: int = 0
    l1_accesses: int = 0
    l1_misses: int = 0
    replays: int = 0
    replay_events: int = 0
    scalar_replays: int = 0


def runs_scalar(config) -> bool:
    """Does this secondary config fall back to a scalar engine?

    Streams outside :func:`streams_vector_supported` do; victim caches,
    miss caches and the front members of hybrids always do.
    """
    from repro.core.config import StreamConfig
    from repro.sim.vector import streams_vector_supported

    if isinstance(config, StreamConfig):
        return not streams_vector_supported(config)
    if config.kind == "streams":
        return not streams_vector_supported(config.streams)
    return True


@contextmanager
def instrumented(counts: LayerCounts):
    """Tracer on, wrappers installed; both undone on exit."""
    from repro.analytic import screen
    from repro.obs.spans import get_tracer, set_tracing
    from repro.sim import compare, parallel, runner
    from repro.workloads.base import Workload

    tracer = get_tracer()
    restore: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapper) -> None:
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    original_trace = Workload.trace

    def trace(self):
        if self._trace is not None:
            return original_trace(self)
        with tracer.span("workloads.build", workload=self.name):
            built = original_trace(self)
        counts.accesses_built += len(built)
        return built

    patch(Workload, "trace", trace)

    original_l1 = runner.simulate_l1

    def simulate_l1(*args, **kwargs):
        result = original_l1(*args, **kwargs)
        counts.l1_accesses += result[1].trace_length
        counts.l1_misses += result[1].misses
        return result

    patch(runner, "simulate_l1", simulate_l1)

    def replay_wrapper(original):
        def replay(config, miss_trace, *args, **kwargs):
            with tracer.span("secondary.replay"):
                stats = original(config, miss_trace, *args, **kwargs)
            counts.replays += 1
            counts.replay_events += len(miss_trace)
            counts.scalar_replays += runs_scalar(config)
            return stats

        return replay

    for module in (parallel, compare, screen):
        for attr in ("replay_streams", "replay_secondary"):
            patch(module, attr, replay_wrapper(getattr(module, attr)))

    tracer.clear()
    set_tracing(True)
    try:
        yield tracer
    finally:
        set_tracing(False)
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# -- self time --------------------------------------------------------------


@dataclass
class Attribution:
    """Self time per layer over the trees rooted at the chosen roots."""

    layer_self_s: Dict[str, float] = field(default_factory=dict)
    root_self_s: float = 0.0
    root_dur_s: float = 0.0
    container_self_s: Dict[str, float] = field(default_factory=dict)

    @property
    def attributed_s(self) -> float:
        return sum(self.layer_self_s.values())


def _end(span: dict) -> int:
    return span["ts"] + span.get("dur", 0)


def _trace_id(span: dict) -> Optional[str]:
    return (span.get("args") or {}).get("trace_id") or None


def assign_parents(spans: List[dict]) -> List[Optional[int]]:
    """Parent index of every span (None for roots); see module docstring."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i]["ts"], -spans[i].get("dur", 0)))
    parents: List[Optional[int]] = [None] * len(spans)
    stacks: Dict[tuple, List[int]] = defaultdict(list)
    for i in order:
        span = spans[i]
        stack = stacks[(span["pid"], span["tid"])]
        while stack and _end(spans[stack[-1]]) <= span["ts"]:
            stack.pop()
        for j in reversed(stack):
            if _end(spans[j]) >= _end(span):
                parents[i] = j
                break
        stack.append(i)

    by_trace: Dict[str, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        tid = _trace_id(span)
        if tid:
            by_trace[tid].append(i)

    def innermost(candidates: Iterable[int], i: int) -> Optional[int]:
        span = spans[i]
        best = None
        for j in candidates:
            if j == i:
                continue
            other = spans[j]
            if other["ts"] <= span["ts"] and _end(other) >= _end(span):
                if other.get("dur", 0) > span.get("dur", 0) or (
                    other.get("dur", 0) == span.get("dur", 0) and other["ts"] < span["ts"]
                ):
                    if best is None or other.get("dur", 0) < spans[best].get("dur", 0):
                        best = j
        return best

    dispatches = sorted(
        (i for i, s in enumerate(spans) if s["name"] == "fleet.dispatch"),
        key=lambda i: spans[i]["ts"],
    )
    dispatch_starts = [spans[i]["ts"] for i in dispatches]
    for i, span in enumerate(spans):
        if parents[i] is not None:
            continue
        tid = _trace_id(span)
        if tid:
            parents[i] = innermost(
                (j for j in by_trace[tid] if spans[j]["pid"] != span["pid"] or spans[j]["tid"] != span["tid"]),
                i,
            )
        if parents[i] is None and span["name"] != "fleet.dispatch":
            upto = bisect.bisect_right(dispatch_starts, span["ts"])
            parents[i] = innermost(
                (j for j in dispatches[:upto] if spans[j]["pid"] != span["pid"]), i
            )
    return parents


def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def attribute(events: Iterable[dict], is_root) -> Attribution:
    """Self time per layer in every tree whose root satisfies ``is_root``.

    Spans of no layer (the benchmark's own ``bench.*`` roots) hold the
    unattributed time.  Times in the trace are microseconds.
    """
    spans = [e for e in events if e.get("ph") == "X"]
    parents = assign_parents(spans)
    children: Dict[int, List[int]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(i)

    result = Attribution()
    layer_us: Dict[str, float] = defaultdict(float)
    container_us: Dict[str, float] = defaultdict(float)
    for root in (i for i, p in enumerate(parents) if p is None and is_root(spans[i])):
        result.root_dur_s += spans[root].get("dur", 0) / 1e6
        pending = [root]
        while pending:
            i = pending.pop()
            span = spans[i]
            kids = children.get(i, [])
            pending.extend(kids)
            own = span.get("dur", 0) - _covered(
                [(spans[k]["ts"], _end(spans[k])) for k in kids], span["ts"], _end(span)
            )
            layer = layer_of(span["name"])
            if layer is None:
                result.root_self_s += own / 1e6
            else:
                layer_us[layer] += own
            if span["name"] in CONTAINER_SPANS:
                container_us[span["name"]] += own
    result.layer_self_s = {k: v / 1e6 for k, v in layer_us.items()}
    result.container_self_s = {k: v / 1e6 for k, v in container_us.items()}
    return result


def gap_report(attribution: Attribution, wall_s: float) -> List[dict]:
    """Known unspanned blocking steps plus the measured container self time."""
    measured = [
        {"span": name, "self_s": round(seconds, 6), "share": round(seconds / wall_s, 4) if wall_s else 0.0}
        for name, seconds in sorted(
            attribution.container_self_s.items(), key=lambda kv: -kv[1]
        )
    ]
    return [
        {"step": step, "shows_as": where} for step, where in UNSPANNED_STEPS
    ] + measured
