"""The paper's evaluation metrics (Sec. II / Sec. V).

* Normalised throughput ``T``: mean per-DNN inferences/s of a mapping,
  normalised by the all-on-GPU baseline's mean.
* Potential throughput ``P``: each DNN's rate divided by its GPU-solo
  ("ideal") rate.
"""

from __future__ import annotations

from ..hw.platform import Platform
from ..mapping.mapping import gpu_only_mapping
from ..sim.engine import SimResult, simulate
from ..zoo.layers import ModelSpec

__all__ = [
    "average_throughput",
    "normalized_throughput",
    "baseline_result",
]


def average_throughput(result: SimResult) -> float:
    """Paper's T (un-normalised): mean per-DNN inferences/s."""
    return result.average_throughput


def baseline_result(workload: list[ModelSpec], platform: Platform) -> SimResult:
    """Simulate the paper's baseline: every DNN whole on the GPU."""
    return simulate(workload, gpu_only_mapping(workload), platform)


def normalized_throughput(result: SimResult, baseline: SimResult) -> float:
    """T normalised by the all-on-GPU baseline."""
    if baseline.average_throughput <= 0:
        raise ValueError("baseline throughput must be positive")
    return result.average_throughput / baseline.average_throughput
