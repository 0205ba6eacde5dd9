"""Analytic locality engine: stack-distance profiles and closed-form models.

One pass over an L1 miss trace (:mod:`repro.analytic.profile`) yields the
exact fully-associative LRU hit rate of every capacity at once
(:mod:`repro.analytic.model`); the same stack-distance kernel run per set
evaluates the paper's whole set-associative L2 grid exactly
(:func:`~repro.caches.sampling.l2_ladder`), which is how the Table 4
search answers the minimum L2 matching the stream hit rate
(:mod:`repro.analytic.screen` keeps its analytic-path name).  The
companion stream-side model (:mod:`repro.analytic.streams`) does the same
for the *other* axis of the paper: a one-pass miss-spectrum extraction
(:mod:`repro.trace.spectrum`) feeds a closed-form stream-buffer hit-rate
model that predicts ``n_streams``/filter/czone sweep cells without
replay, each prediction carrying a declared error bound the differ
enforces against the golden oracle.  See ``docs/analytic.md``.
"""

from repro.analytic.model import fa_hit_count, fa_hit_curve, fa_hit_rate
from repro.analytic.profile import (
    PROFILE_BLOCK_SIZES,
    LocalityProfile,
    profile_miss_trace,
)
from repro.analytic.screen import min_matching_l2_size_analytic
from repro.analytic.streams import (
    StreamPrediction,
    ensure_spectrum,
    in_envelope,
    predict_streams,
    stream_envelope_config,
)

__all__ = [
    "PROFILE_BLOCK_SIZES",
    "LocalityProfile",
    "StreamPrediction",
    "ensure_spectrum",
    "fa_hit_count",
    "fa_hit_curve",
    "fa_hit_rate",
    "in_envelope",
    "min_matching_l2_size_analytic",
    "predict_streams",
    "profile_miss_trace",
    "stream_envelope_config",
]
