"""Analytic layer: closed-form stream predictions from miss-stream structure."""

from repro.analysis.predict import (
    StreamPrediction,
    predict_no_filter,
    predict_with_filter,
)
from repro.analysis.runs import RunDecomposition, decompose_runs

__all__ = [
    "RunDecomposition",
    "StreamPrediction",
    "decompose_runs",
    "predict_no_filter",
    "predict_with_filter",
]
