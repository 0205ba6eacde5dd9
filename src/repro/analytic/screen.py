"""Analytic fast path for the Table 4 minimum-L2 search.

The brute-force search (:func:`repro.sim.compare.min_matching_l2_size`)
simulates candidate (size, assoc, block) configurations until it brackets
the smallest matching capacity.  This module prunes that work with the
stack-distance profile:

1. profile the miss trace once (or load the profile from the
   :class:`~repro.trace.store.TraceStore`, keyed by the trace digest);
2. evaluate the whole size ladder analytically — exact fully-associative
   hit rates plus the combined-locality set-associative estimates of
   :mod:`repro.analytic.model`;
3. run the same lower-bound search as the pure path, but (a) seed it with
   the analytically predicted boundary so a correct prediction resolves
   in two probes, and (b) skip simulating any size whose best analytic
   value sits below the target by more than a safety margin — those are
   *certain misses*.

The margin is the set-sampling confidence half-width
(:func:`~repro.caches.sampling.sampling_halfwidth`) plus a small
estimator slack, so neither sampling noise nor set-partition error can
flip a decision the screen skipped.  A *match* is never declared
analytically: every matched size is witnessed by real (sampled)
simulation through the shared :func:`~repro.sim.compare.probe_size`
helper, so any size both paths probe yields bit-identical numbers and
the returned ``matched_size`` agrees with the brute-force search.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analytic.model import best_estimate_at_size, fa_hit_rate
from repro.analytic.profile import (
    PROFILE_BLOCK_SIZES,
    LocalityProfile,
    profile_miss_trace,
)
from repro.caches.cache import MissTrace
from repro.caches.sampling import SamplingPlan, sampling_halfwidth
from repro.caches.secondary import PAPER_L2_SIZES
from repro.core.config import StreamConfig
from repro.mechanisms import MechanismConfig, mechanism_label
from repro.sim.vector import replay_secondary, replay_streams
from repro.obs.metrics import engine_registry
from repro.obs.spans import get_tracer
from repro.sim.compare import (
    MatchResult,
    SizePoint,
    probe_size,
    search_min_match,
)
from repro.sim.runner import MissTraceCache, default_cache, resolve_workload_ref
from repro.trace.store import TraceStore
from repro.workloads.base import Workload

__all__ = ["ESTIMATOR_SLACK", "ensure_profiles", "min_matching_l2_size_analytic"]

#: Safety slack added to the pruning margin for set-partition estimator
#: error.  Calibrated against the 200-seed differ corpus with the
#: combined-locality estimator: the measured worst-case absolute error
#: over the full Table-4 config grid is 0.0069 (uniform binomial: 0.0078
#: — docs/analytic.md, "Validated error bounds"), and the slack holds
#: ~1.45x headroom above it.  Sizes within the margin are simulated, not
#: trusted, so shrinking the slack prunes more of the grid without
#: weakening the witness guarantee.
ESTIMATOR_SLACK = 0.01


def ensure_profiles(
    miss_trace: MissTrace,
    store: Optional[TraceStore] = None,
    digest: Optional[str] = None,
    block_sizes: Sequence[int] = PROFILE_BLOCK_SIZES,
) -> Dict[int, LocalityProfile]:
    """Locality profiles for a trace, through the persistent store.

    Loads from ``store`` when a complete, current-format record exists
    under ``digest``; otherwise profiles in-process and (when a store and
    digest are given) persists the result for the next session.
    """
    if store is not None and digest is not None:
        stored = store.get("profile", digest)
        if stored is not None and all(bs in stored for bs in block_sizes):
            return stored
    with get_tracer().span("analytic.profile", blocks=len(tuple(block_sizes))):
        profiles = profile_miss_trace(miss_trace, block_sizes)
    if store is not None and digest is not None:
        store.put("profile", digest, profiles)
    return profiles


def min_matching_l2_size_analytic(
    workload: Union[str, Workload],
    scale: float = 1.0,
    seed: int = 0,
    stream_config: Optional[StreamConfig] = None,
    sizes: Sequence[int] = PAPER_L2_SIZES,
    sampling: SamplingPlan = SamplingPlan(sample_every=8),
    cache: Optional[MissTraceCache] = None,
    estimator_slack: float = ESTIMATOR_SLACK,
    mechanism: Optional[MechanismConfig] = None,
) -> MatchResult:
    """Analytically screened version of ``min_matching_l2_size``.

    Same arguments and same ``MatchResult`` semantics as the pure path —
    identical ``matched_size``, and bit-identical ``SizePoint`` values at
    any size both paths simulate — but typically an order of magnitude
    fewer configurations simulated (``configs_simulated`` records the
    actual count; ``analytic_estimates`` the screen's per-size values).

    The screen applies to *every* mechanism, not just streams: the
    stack-distance estimates describe the candidate **L2** sizes, and the
    mechanism only sets the target hit rate those estimates are pruned
    against.  A certain-miss decision (``estimate + margin < target``)
    is therefore mechanism-agnostic, and every match is still witnessed
    by real sampled simulation regardless of which mechanism produced
    the target.
    """
    if mechanism is not None and stream_config is not None:
        raise ValueError("pass either stream_config or mechanism, not both")
    cache = cache if cache is not None else default_cache()
    name, scale, seed, _ = resolve_workload_ref(workload, scale, seed)
    miss_trace, _ = cache.get(workload, scale=scale, seed=seed)
    if mechanism is not None and mechanism.kind != "streams":
        stream_stats = replay_secondary(mechanism, miss_trace)
        label = mechanism_label(mechanism)
    else:
        if mechanism is not None:
            config = mechanism.streams
        else:
            config = (
                stream_config if stream_config is not None else StreamConfig.non_unit()
            )
        stream_stats = replay_streams(config, miss_trace)
        label = "streams"
    target = stream_stats.hit_rate

    digest = None
    if cache.store is not None:
        digest = cache.trace_key(name, scale, seed)
    profiles = ensure_profiles(miss_trace, store=cache.store, digest=digest)

    sizes_sorted = sorted(sizes)
    estimates: List[float] = []
    bounds: List[float] = []
    for size in sizes_sorted:
        estimate, _ = best_estimate_at_size(profiles, size)
        # The certain-miss bound also covers the exact FA curve: set
        # partitioning can occasionally beat full associativity, but
        # never both the FA rate and the binomial estimate at once by
        # more than the slack.
        bound = max(
            [estimate] + [fa_hit_rate(profile, size) for profile in profiles.values()]
        )
        estimates.append(estimate)
        bounds.append(bound)

    demand = next(iter(profiles.values())).demand_accesses
    margin = (
        sampling_halfwidth(demand // sampling.sample_every, population=demand)
        + estimator_slack
    )

    points: List[SizePoint] = []
    counter = [0]
    pruned = [0]
    probe_clock = [0.0]
    registry = engine_registry()

    def decide(index: int) -> bool:
        if bounds[index] + margin < target:
            pruned[0] += 1
            registry.counter(
                "engine_analytic_pruned_total",
                "ladder sizes rejected analytically without simulation",
            ).inc()
            return False  # certain miss: no configuration can reach the target
        started = time.perf_counter()
        point, simulated = probe_size(
            miss_trace, sizes_sorted[index], sampling, target
        )
        probe_clock[0] += time.perf_counter() - started
        registry.counter(
            "engine_analytic_probed_total",
            "ladder sizes the analytic screen had to simulate",
        ).inc()
        points.append(point)
        counter[0] += simulated
        return point.hit_rate >= target

    guess = next(
        (i for i, estimate in enumerate(estimates) if estimate >= target), None
    )
    matched_index = search_min_match(len(sizes_sorted), decide, guess=guess)
    return MatchResult(
        workload=name,
        scale=scale,
        stream_stats=stream_stats,
        matched_size=None if matched_index is None else sizes_sorted[matched_index],
        l2_hit_rates=tuple(sorted(points)),
        configs_simulated=counter[0],
        method="analytic",
        analytic_estimates=tuple(zip(sizes_sorted, estimates)),
        sizes_pruned=pruned[0],
        probe_seconds=probe_clock[0],
        mechanism=label,
    )
