"""Streams versus secondary caches (paper Section 8 / Table 4).

For a workload at a given input scale, find the minimum secondary cache
capacity whose best-configuration local hit rate (associativity 1-4,
block 64/128B) matches the stream buffers' hit rate.  Set sampling keeps
the multi-megabyte configurations affordable, as in the paper.

LRU has the inclusion property (Mattson), so one per-set stack-distance
pass yields the hit count of every associativity at a set count:
:func:`~repro.caches.sampling.l2_ladder` evaluates the whole candidate
grid exactly — bit-identical to simulating each configuration with
:func:`~repro.caches.sampling.sampled_hit_rate` — in one pass per (set
count, block size).  :func:`min_matching_l2_size` then binary-searches
that ladder; ``MatchResult.l2_hit_rates`` records every size with the
(assoc, block) provenance of its best configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.caches.cache import CacheConfig, MissTrace
from repro.caches.sampling import SamplingPlan, l2_ladder
from repro.caches.secondary import PAPER_L2_SIZES, SecondaryResult, candidate_configs
from repro.core.config import StreamConfig
from repro.core.prefetcher import StreamStats
from repro.mechanisms import MechanismConfig, mechanism_label
from repro.obs.metrics import engine_registry
from repro.obs.spans import get_tracer
from repro.sim.runner import MissTraceCache, default_cache, resolve_workload_ref
from repro.sim.vector import replay_secondary, replay_streams
from repro.workloads.base import Workload

__all__ = [
    "SizePoint",
    "MatchResult",
    "StreamSweepCell",
    "TABLE4_SAMPLING",
    "min_matching_l2_size",
    "replay_target",
    "evaluate_ladder",
    "match_ladder",
    "analytic_stream_sweep",
    "search_min_match",
    "format_size",
]

WorkloadRef = Union[str, Workload]

#: The Table 4 search's set-sampling plan: every 8th set.
TABLE4_SAMPLING = SamplingPlan(sample_every=8)


class SizePoint(NamedTuple):
    """Best configuration at one candidate L2 size.

    Attributes:
        size: L2 capacity in bytes.
        hit_rate: best local hit rate over the size's candidate grid.
        assoc: associativity of that best configuration (the first in
            :func:`~repro.caches.secondary.candidate_configs` order on
            a tie).
        block_size: block size of that best configuration.
    """

    size: int
    hit_rate: float
    assoc: int
    block_size: int


@dataclass(frozen=True)
class MatchResult:
    """Outcome of the Table 4 search for one (workload, scale) cell.

    Attributes:
        workload: benchmark name.
        scale: input scale used.
        stream_stats: the secondary-mechanism run being matched — a
            :class:`StreamStats` for the default stream search, a
            :class:`~repro.mechanisms.MechStats` for any other mechanism.
        mechanism: label of the mechanism that produced the match target
            (:func:`~repro.mechanisms.mechanism_label`), ``"streams"``
            historically and by default.  Recorded explicitly so
            manifests and exhibits stay unambiguous now that several
            mechanisms can be searched.
        matched_size: smallest L2 capacity reaching the mechanism hit
            rate, or None if even the largest candidate fell short.
        l2_hit_rates: the best configuration of every candidate size,
            ascending by size.
        configs_simulated: L2 configurations the ladder evaluated.
        sizes_pruned: ladder sizes decided without evaluation; always 0,
            since the ladder evaluates every size exactly.
        probe_seconds: wall time spent evaluating the ladder.  Excluded
            from equality, like the provenance fields on
            :class:`~repro.sim.results.RunResult`.
    """

    workload: str
    scale: float
    stream_stats: StreamStats
    matched_size: Optional[int]
    l2_hit_rates: Tuple[SizePoint, ...]
    configs_simulated: int = 0
    sizes_pruned: int = 0
    probe_seconds: float = field(default=0.0, compare=False)
    mechanism: str = "streams"

    @property
    def stream_hit_rate_percent(self) -> float:
        return self.stream_stats.hit_rate_percent


def search_min_match(
    n_sizes: int,
    decide: Callable[[int], bool],
    guess: Optional[int] = None,
) -> Optional[int]:
    """Lower-bound binary search over a match predicate.

    Args:
        n_sizes: ladder length; indices ``0 .. n_sizes-1`` ascend in size.
        decide: ``decide(i)`` — does the size at index ``i`` reach the
            target?  The result is the true minimum where it is monotone
            (False below some boundary, True at and above it).
        guess: optional index to probe first (a predicted boundary).
            After each probe the next guess is the adjacent boundary
            candidate, so a correct prediction resolves in two probes; a
            wrong one degrades toward plain binary search.  The Table 4
            search passes none: its ``decide`` is a ladder lookup.

    Returns:
        Index of the smallest matching size, or None when nothing
        matches.
    """
    guided = guess is not None
    left, right = 0, n_sizes
    while left < right:
        if guided and guess is not None and left <= guess < right:
            mid = guess
        else:
            mid = (left + right) // 2
        if decide(mid):
            right = mid
            guess = mid - 1
        else:
            left = mid + 1
            guess = mid + 1
    return left if left < n_sizes else None


def replay_target(
    miss_trace: MissTrace,
    stream_config: Optional[StreamConfig] = None,
    mechanism: Optional[MechanismConfig] = None,
) -> Tuple[StreamStats, str]:
    """The secondary-mechanism run a search matches, and its label.

    ``mechanism`` selects any secondary mechanism; ``stream_config`` is
    the backward-compatible spelling of the streams case (default: the
    paper's Table 4 setup, :meth:`StreamConfig.non_unit`).
    """
    if mechanism is not None and mechanism.kind != "streams":
        return replay_secondary(mechanism, miss_trace), mechanism_label(mechanism)
    if mechanism is not None:
        config = mechanism.streams
    else:
        config = stream_config if stream_config is not None else StreamConfig.non_unit()
    return replay_streams(config, miss_trace), "streams"


def evaluate_ladder(
    miss_trace: MissTrace,
    sizes: Sequence[int],
    sampling: SamplingPlan,
) -> Tuple[Dict[CacheConfig, SecondaryResult], float]:
    """:func:`~repro.caches.sampling.l2_ladder` inside an ``l2.ladder``
    span, counted in ``engine_l2_configs_simulated_total``; returns the
    ladder and its wall time."""
    started = time.perf_counter()
    with get_tracer().span("l2.ladder", sizes=len(sizes)):
        ladder = l2_ladder(miss_trace, sizes, sampling)
    engine_registry().counter(
        "engine_l2_configs_simulated_total", "secondary-cache configurations simulated"
    ).inc(len(ladder))
    return ladder, time.perf_counter() - started


def match_ladder(
    name: str,
    scale: float,
    stream_stats: StreamStats,
    mechanism: str,
    ladder: Dict[CacheConfig, SecondaryResult],
    sizes: Sequence[int],
    probe_seconds: float = 0.0,
) -> MatchResult:
    """Search an evaluated ladder for the smallest size whose best
    configuration reaches ``stream_stats.hit_rate``."""
    points: List[SizePoint] = []
    for size in sorted(sizes):
        best = max(
            (ladder[config] for config in candidate_configs(size)),
            key=lambda result: result.local_hit_rate,
        )
        points.append(
            SizePoint(size, best.local_hit_rate, best.config.assoc, best.config.block_size)
        )
    target = stream_stats.hit_rate
    matched = search_min_match(len(points), lambda i: points[i].hit_rate >= target)
    return MatchResult(
        workload=name,
        scale=scale,
        stream_stats=stream_stats,
        matched_size=None if matched is None else points[matched].size,
        l2_hit_rates=tuple(points),
        configs_simulated=len(ladder),
        probe_seconds=probe_seconds,
        mechanism=mechanism,
    )


def min_matching_l2_size(
    workload: WorkloadRef,
    scale: float = 1.0,
    seed: int = 0,
    stream_config: Optional[StreamConfig] = None,
    sizes: Sequence[int] = PAPER_L2_SIZES,
    sampling: SamplingPlan = TABLE4_SAMPLING,
    cache: Optional[MissTraceCache] = None,
    mechanism: Optional[MechanismConfig] = None,
) -> MatchResult:
    """Find the minimum L2 size matching a secondary mechanism's hit rate.

    The default is the paper's Table 4 setup: ten streams, a 16-entry
    unit filter backed by a 16-entry non-unit stride filter.  Passing
    ``mechanism`` searches against any other secondary mechanism (victim
    cache, miss cache, hybrid stack); ``stream_config`` remains the
    backward-compatible spelling of the streams case and may not be
    combined with it.  The whole size ladder is evaluated exactly (see
    the module docstring) and then binary-searched.
    """
    if mechanism is not None and stream_config is not None:
        raise ValueError("pass either stream_config or mechanism, not both")
    cache = cache if cache is not None else default_cache()
    # Provenance must match the simulation: an instance's own scale wins.
    name, scale, seed, _ = resolve_workload_ref(workload, scale, seed)
    miss_trace, _ = cache.get(workload, scale=scale, seed=seed)
    stats, label = replay_target(miss_trace, stream_config, mechanism)
    ladder, seconds = evaluate_ladder(miss_trace, sizes, sampling)
    return match_ladder(name, scale, stats, label, ladder, sizes, seconds)


@dataclass(frozen=True)
class StreamSweepCell:
    """One configuration cell of an analytic stream sweep.

    Attributes:
        config: the envelope-coerced configuration evaluated.
        predicted_hit_rate: the closed-form model's stream hit rate.
        bound: the prediction's declared absolute error bound.
        eb_estimate: modeled extra-bandwidth estimate (percent of
            demand misses, Table 2/3 units).
        simulated_hit_rate: real replayed hit rate when this cell was
            witnessed, else None.
        within_bound: for witnessed cells, whether the replay landed
            inside the declared bound; vacuously True otherwise.
    """

    config: StreamConfig
    predicted_hit_rate: float
    bound: float
    eb_estimate: float
    simulated_hit_rate: Optional[float] = None

    @property
    def witnessed(self) -> bool:
        return self.simulated_hit_rate is not None

    @property
    def within_bound(self) -> bool:
        if self.simulated_hit_rate is None:
            return True
        return abs(self.simulated_hit_rate - self.predicted_hit_rate) <= self.bound


def analytic_stream_sweep(
    workload: WorkloadRef,
    configs: dict,
    scale: float = 1.0,
    seed: int = 0,
    cache: Optional[MissTraceCache] = None,
    witness: str = "best",
) -> dict:
    """Predict a stream-configuration sweep from one spectrum pass.

    The replay-based sweeps (:mod:`repro.sim.sweep`) simulate every
    cell; this path extracts the miss spectrum once (cached in the
    :class:`~repro.trace.store.TraceStore` under the trace digest) and
    evaluates every cell with the closed-form model of
    :mod:`repro.analytic.streams`.  Predictions never stand alone: the ``witness`` policy picks cells to replay for
    real and :meth:`StreamSweepCell.within_bound` records whether the
    replay landed inside each prediction's declared error bound.

    Args:
        workload: registry name or instance (same resolution as
            :func:`min_matching_l2_size`).
        configs: ``{key: StreamConfig}`` cells, e.g. a Figure 3
            ``n_streams`` ladder.  Each config is coerced onto the model
            envelope via :func:`~repro.analytic.streams.stream_envelope_config`.
        witness: ``"best"`` replays the cell with the highest predicted
            hit rate (the one a consumer would report), ``"all"`` replays
            every cell, ``"none"`` replays nothing (pure prediction).

    Returns:
        ``{key: StreamSweepCell}`` in the input order.

    Raises:
        RuntimeError: when a witnessed cell's replayed hit rate falls
            outside the prediction's declared bound — the model's
            contract is broken and no cell should be trusted.
    """
    from repro.analytic.streams import (
        ensure_spectrum,
        predict_streams,
        stream_envelope_config,
    )
    from repro.sim.runner import resolve_workload_ref

    if witness not in ("best", "all", "none"):
        raise ValueError(f"unknown witness policy {witness!r}")
    cache = cache if cache is not None else default_cache()
    name, scale, seed, _ = resolve_workload_ref(workload, scale, seed)
    miss_trace, _ = cache.get(workload, scale=scale, seed=seed)
    digest = None
    if cache.store is not None:
        digest = cache.trace_key(name, scale, seed)
    spectrum = ensure_spectrum(miss_trace, store=cache.store, digest=digest)

    predictions = {
        key: predict_streams(spectrum, stream_envelope_config(config))
        for key, config in configs.items()
    }
    witness_keys: List = []
    if witness == "all":
        witness_keys = list(predictions)
    elif witness == "best" and predictions:
        witness_keys = [max(predictions, key=lambda k: predictions[k].hit_rate)]

    cells = {}
    for key, prediction in predictions.items():
        simulated = None
        if key in witness_keys:
            with get_tracer().span("streams.witness", key=str(key)):
                simulated = replay_streams(prediction.config, miss_trace).hit_rate
        cell = StreamSweepCell(
            config=prediction.config,
            predicted_hit_rate=prediction.hit_rate,
            bound=prediction.bound,
            eb_estimate=prediction.eb_estimate,
            simulated_hit_rate=simulated,
        )
        if not cell.within_bound:
            raise RuntimeError(
                f"analytic stream sweep witness out of bound at {key!r}: "
                f"predicted {cell.predicted_hit_rate:.6f} +/- {cell.bound:.6f}, "
                f"replayed {simulated:.6f} ({name}@{scale})"
            )
        cells[key] = cell
    return cells


def format_size(size_bytes: Optional[int]) -> str:
    """Render a capacity the way Table 4 does (``512 KB``, ``2 MB``)."""
    if size_bytes is None:
        return ">4 MB"
    if size_bytes >= 1 << 20:
        value = size_bytes / (1 << 20)
        return f"{value:g} MB"
    return f"{size_bytes // 1024} KB"
