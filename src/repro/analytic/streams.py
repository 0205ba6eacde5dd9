"""Closed-form stream-buffer hit-rate model over a miss spectrum.

The paper's Sections 5-8 argue stream-buffer hit rate is a function of
the miss stream's run-length/stride structure.  This module takes that
literally: :mod:`repro.trace.spectrum` extracts the structure once
(config-free), and :func:`predict_streams` evaluates any
``n_streams``/filter/czone configuration from it in closed form, without
replaying the trace.

Per run of length L the model charges a **training cost** t — demand
misses the mechanism spends before the stream starts hitting — and
credits ``L - t`` hits, minus ``t_re`` retraining misses for every event
that kills the trained stream (an LRU eviction under allocation
pressure, or a write-back invalidating the stream's next entry, which
with head-only lookup permanently wedges the stream):

* ascending unit runs: ``t = 1`` unfiltered (Section 5 allocates on
  every miss, so the primer itself trains); with a unit filter
  (Section 6) ``t = 2`` when the primer's filter entry is still alive at
  seed time and ``t = 3`` when allocation pressure has evicted it;
* every other stride needs the Section 7 czone detector: ``t`` is
  computed by replaying the Figure 7 FSM arithmetically over the run's
  start address and byte stride at the *config's* ``czone_bits`` — two
  equal byte deltas inside one zone detect, so ``t`` is the index of the
  first element completing a 3-streak within a zone partition (often 3,
  later when the stride straddles zone boundaries, never when the zone
  is narrower than three strides);
* runs whose byte deltas are not constant (``run_byte_uniform == 0``)
  cannot verify in the FSM: predicted 0 hits, full-length uncertainty.

Eviction kills come from the spectrum's per-gap slot-pressure
histograms.  Each distinct run interleaving elements into one of this
run's gaps claims a stream slot — by allocating if untrained, by an LRU
hit-refresh if streaming — and under the unit filter those are the only
claims (lone misses just insert into the filter), so a filtered config's
stream dies in gaps where ``run_conc_ge`` reaches ``n_streams``.
Without the filter every miss allocates, so lone misses claim slots too
and the combined ``run_gaps_ge`` histogram applies.  Gaps within one
claim of the threshold ride in the error bound: whether a counted run
was actually stale, or claimed twice, decides them.

Every prediction carries a **declared error bound**: a calibrated base
term plus per-run uncertainty (czone training jitter, primer-age
boundary cases, the eviction-pressure band, deep write-back window
surplus), normalised by demand misses.  The ``analytic-streams`` differ
stage holds ``|predicted - oracle| <= bound`` against the golden
:class:`~repro.check.oracle.RefStreamPrefetcher` on every corpus seed,
and the sweep path (:func:`repro.sim.compare.analytic_stream_sweep`)
witnesses reported cells by real replay — predictions prune and rank,
simulation decides.

The model's envelope is the paper's core mechanism set: unpartitioned
lanes, head-only lookup (``lookup_depth == 1``), no minimum lead, and
the ``none``/``czone`` detectors.  :func:`stream_envelope_config`
coerces any config onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.core.config import StreamConfig, StrideDetector
from repro.trace.spectrum import (
    GAP_PRESSURE_BINS,
    RUN_KIND_UNIT,
    MissSpectrum,
    extract_spectrum,
)

__all__ = [
    "BOUND_BASE",
    "BOUND_CZONE_JITTER",
    "BOUND_PRIMER_EDGE",
    "StreamPrediction",
    "stream_envelope_config",
    "in_envelope",
    "predict_streams",
    "ensure_spectrum",
]

#: Base error-bound term (absolute hit-rate units): unmodeled
#: interference — filter aliasing between concurrent runs, czone-row
#: FIFO eviction, stream-allocation order effects, and the pressure
#: counter's seed-event overcount.  Calibrated so the 200-seed differ
#: corpus shows 0 out-of-bound predictions with ~2x headroom (see
#: docs/analytic.md, "Stream-model error bounds").
BOUND_BASE = 0.02

#: Per-czone-trained-run uncertainty (misses): detection can slip by a
#: couple of elements when interleaved misses share the config's zone or
#: the training row is evicted mid-streak.
BOUND_CZONE_JITTER = 3

#: Primer-age slop (allocation events): the spectrum's pressure counter
#: approximates the oracle's filter-insertion count, so primer ages
#: within this distance of the filter capacity could fall either side.
BOUND_PRIMER_EDGE = 2


@dataclass(frozen=True)
class StreamPrediction:
    """One config's predicted stream-buffer behaviour over a spectrum.

    Attributes:
        config: the (envelope) configuration evaluated.
        demand_misses: denominator — demand misses in the spectrum.
        predicted_hits: modeled stream-hit count.
        hit_rate: ``predicted_hits / demand_misses`` (0.0 on empty).
        bound: declared absolute error bound on ``hit_rate`` vs the
            golden oracle; enforced by the ``analytic-streams`` stage.
        allocations: modeled stream allocations (trains + retrains for
            filtered configs, every non-hit miss otherwise).
        eb_estimate: Table 2/3-style extra-bandwidth estimate, percent
            of demand misses (``allocations * depth`` prefetches issued,
            hits consumed).
        runs_modeled / runs_unmodeled: coverage accounting; unmodeled
            runs (non-constant byte deltas needing the FSM) predict 0
            hits and widen the bound by their full length.
    """

    config: StreamConfig
    demand_misses: int
    predicted_hits: float
    hit_rate: float
    bound: float
    allocations: float
    eb_estimate: float
    runs_modeled: int
    runs_unmodeled: int


def stream_envelope_config(config: StreamConfig) -> StreamConfig:
    """The nearest configuration inside the model's envelope.

    Forces unpartitioned lanes, head-only lookup and zero minimum lead,
    and maps the ``min-delta`` detector to ``czone`` (the modelable
    Section 7 mechanism).  Idempotent; configs already in the envelope
    pass through unchanged.
    """
    detector = config.stride_detector
    if detector == StrideDetector.MIN_DELTA:
        detector = StrideDetector.CZONE
    return replace(
        config,
        partitioned=False,
        lookup_depth=1,
        min_lead=0,
        stride_detector=detector,
    )


def in_envelope(config: StreamConfig) -> bool:
    """Whether :func:`predict_streams` models this config exactly."""
    return (
        not config.partitioned
        and config.lookup_depth == 1
        and config.min_lead == 0
        and config.stride_detector in (StrideDetector.NONE, StrideDetector.CZONE)
    )


def _czone_training_cost(
    start_addr: int, stride_bytes: int, length: int, czone_bits: int
) -> Optional[int]:
    """Misses the Figure 7 FSM spends before detecting this run.

    Walks the run's arithmetic sequence, counting consecutive elements
    sharing a ``czone_bits`` partition tag: the FSM's META1/META2 states
    verify on the third consecutive in-zone element (two equal deltas),
    so the streak hitting 3 detects and the cost is that element's index
    plus one.  None when no 3-streak exists within the run — strides
    wider than a third of the zone never train.
    """
    streak = 0
    last_tag = None
    addr = start_addr
    for index in range(length):
        tag = addr >> czone_bits
        if tag == last_tag:
            streak += 1
        else:
            streak = 1
            last_tag = tag
        if streak >= 3:
            return index + 1
        addr += stride_bytes
    return None


def _gaps_at_least(gaps_ge: Sequence[int], pressure: int, gap_count: int) -> int:
    """Gaps of one run with at least ``pressure`` slot-claim events.

    ``gap_count`` is the run's total tracked-gap count — the histogram
    only records pressures >= 1, so it serves as the ``pressure <= 0``
    answer (every gap qualifies).
    """
    if pressure <= 0:
        return gap_count
    if pressure > GAP_PRESSURE_BINS:
        return 0  # beyond the histogram: assume unevicted (band covers)
    return int(gaps_ge[pressure - 1])


def predict_streams(
    spectrum: MissSpectrum, config: StreamConfig
) -> StreamPrediction:
    """Closed-form stream-buffer prediction for one configuration.

    Raises:
        ValueError: when the config sits outside the model envelope
            (see :func:`in_envelope`) or its block granularity differs
            from the spectrum's.
    """
    if not in_envelope(config):
        raise ValueError(
            "config outside the stream-model envelope "
            "(partitioned/lookup_depth/min_lead/detector); coerce via "
            "stream_envelope_config() first"
        )
    if config.block_bits != spectrum.block_bits:
        raise ValueError(
            f"config block_bits {config.block_bits} != spectrum block_bits "
            f"{spectrum.block_bits}"
        )

    demand = spectrum.demand_misses
    block_bytes = 1 << spectrum.block_bits
    filtered = config.unit_filter_entries > 0
    czone = config.stride_detector == StrideDetector.CZONE
    n_streams = config.n_streams

    total_hits = 0.0
    total_uncertainty = 0.0
    allocations = 0.0
    runs_modeled = 0
    runs_unmodeled = 0

    stride_bytes_arr = spectrum.run_stride_bytes.tolist()
    stride_blocks_arr = spectrum.run_stride_blocks.tolist()
    lengths = spectrum.run_length.tolist()
    starts = spectrum.run_start_addr.tolist()
    primer_ages = spectrum.run_primer_age.tolist()
    wb_next_arr = spectrum.run_wb_next.tolist()
    wb_window_arr = spectrum.run_wb_window.tolist()
    uniform_arr = spectrum.run_byte_uniform.tolist()
    kinds = spectrum.run_kind.tolist()
    gaps = spectrum.run_gaps_ge
    concs = spectrum.run_conc_ge

    for i in range(spectrum.n_runs):
        length = lengths[i]
        stride_blocks = stride_blocks_arr[i]
        stride_bytes = stride_bytes_arr[i]
        uncertainty = 0.0

        if stride_blocks == 1 and kinds[i] == RUN_KIND_UNIT:
            # Ascending unit run: Section 5/6 allocation.
            if filtered:
                age = primer_ages[i]
                capacity = config.unit_filter_entries
                train = 2 if age < capacity else 3
                retrain = 2
                if abs(age - capacity) <= BOUND_PRIMER_EDGE:
                    uncertainty += 1  # primer-age boundary: t is 2-or-3
            else:
                train = 1
                retrain = 1
        else:
            # Any other stride needs the czone detector.
            blocked = (
                not czone
                or not filtered  # Section 5 allocates +1 streams only
                or stride_blocks == 0
                or (stride_blocks < 0 and not config.allow_negative_strides)
                or stride_bytes % block_bytes != 0
            )
            if blocked:
                runs_modeled += 1
                if not filtered:
                    # Every element allocates a useless +1 stream.
                    allocations += length
                continue
            if not uniform_arr[i]:
                # Non-constant byte deltas never verify in the FSM; the
                # run may still score partial detections we cannot see.
                runs_unmodeled += 1
                total_uncertainty += length
                continue
            train = _czone_training_cost(
                starts[i], stride_bytes, length, config.czone_bits
            )
            if train is None:
                runs_modeled += 1
                uncertainty += BOUND_CZONE_JITTER  # near-miss streaks
                total_uncertainty += uncertainty
                continue
            retrain = 3
            uncertainty += BOUND_CZONE_JITTER

        # Stream kills: LRU eviction under slot pressure, plus
        # write-backs invalidating the next expected entry (head-only
        # lookup wedges the stream until it retrains).  Each distinct
        # interleaved run claims one slot (allocation or hit refresh);
        # lone misses claim additional slots only when every miss
        # allocates, i.e. without the unit filter.  The run's stream is
        # evicted in a gap when the claims reach ``n_streams``.
        gap_count = length - (2 if kinds[i] == RUN_KIND_UNIT else 3)
        if gap_count < 0:
            gap_count = 0
        pressure_hist = concs[i] if filtered else gaps[i]
        evictions = _gaps_at_least(pressure_hist, n_streams, gap_count)
        # Gaps within one claim of the threshold can flip either way
        # (stale interleaved runs, LRU order, double-allocating runs);
        # zero-pressure gaps are certain survivals and stay out of it.
        band = _gaps_at_least(pressure_hist, max(1, n_streams - 1), gap_count) - (
            _gaps_at_least(pressure_hist, n_streams + 1, gap_count)
            if n_streams + 1 <= GAP_PRESSURE_BINS
            else 0
        )
        uncertainty += retrain * band
        kills = evictions + wb_next_arr[i]
        if config.depth > 1:
            # Deeper FIFO entries can also be invalidated and wedge the
            # stream when they surface; the spectrum only localises
            # write-backs to a 4-stride window, so band the surplus.
            uncertainty += retrain * (wb_window_arr[i] - wb_next_arr[i])
        uncertainty += wb_next_arr[i]  # retrain alignment jitter

        hits = length - train - retrain * kills
        if hits < 0:
            hits = 0
        total_hits += hits
        allocations += 1 + kills
        runs_modeled += 1
        total_uncertainty += uncertainty

    if not filtered:
        # Section 5: every lone miss allocates a speculative +1 stream.
        allocations += spectrum.lone_misses

    if demand <= 0:
        return StreamPrediction(
            config=config,
            demand_misses=0,
            predicted_hits=0.0,
            hit_rate=0.0,
            bound=BOUND_BASE,
            allocations=0.0,
            eb_estimate=0.0,
            runs_modeled=runs_modeled,
            runs_unmodeled=runs_unmodeled,
        )

    hit_rate = total_hits / demand
    bound = BOUND_BASE + total_uncertainty / demand
    issued = allocations * config.depth
    eb_estimate = 100.0 * max(0.0, issued - total_hits) / demand
    return StreamPrediction(
        config=config,
        demand_misses=demand,
        predicted_hits=total_hits,
        hit_rate=hit_rate,
        bound=min(bound, 1.0),
        allocations=allocations,
        eb_estimate=eb_estimate,
        runs_modeled=runs_modeled,
        runs_unmodeled=runs_unmodeled,
    )


def ensure_spectrum(miss_trace, store=None, digest: Optional[str] = None):
    """A trace's miss spectrum, through the persistent store.

    Loads from ``store`` when a current-format record exists under
    ``digest``; otherwise extracts in-process and (when a store and
    digest are given) persists the result for the next session.  The
    companion of :func:`repro.analytic.screen.ensure_profiles` for the
    spectrum layer.
    """
    if store is not None and digest is not None:
        stored = store.get("spectrum", digest)
        if stored is not None:
            return stored
    from repro.obs.spans import get_tracer

    with get_tracer().span("analytic.spectrum"):
        spectrum = extract_spectrum(miss_trace)
    if store is not None and digest is not None:
        store.put("spectrum", digest, spectrum)
    return spectrum
