"""Evaluation metrics: T, P, starvation, priority correlation."""

from .correlation import pearson_r
from .starvation import STARVATION_EPSILON
from .throughput import (average_throughput, baseline_result,
                         normalized_throughput)

__all__ = [
    "pearson_r",
    "STARVATION_EPSILON",
    "average_throughput",
    "baseline_result",
    "normalized_throughput",
]
