"""Evaluation metrics: T, P, starvation, priority correlation."""

from .correlation import pearson_r
from .starvation import STARVATION_EPSILON
from .throughput import baseline_result

__all__ = [
    "pearson_r",
    "STARVATION_EPSILON",
    "baseline_result",
]
