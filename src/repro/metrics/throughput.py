"""The paper's throughput baseline (Sec. II / Sec. V).

Normalised throughput ``T`` is a mapping's mean per-DNN inferences/s
(:attr:`~repro.sim.engine.SimResult.average_throughput`) over the
all-on-GPU baseline's, which :func:`baseline_result` simulates.
Potential throughput ``P`` is
:attr:`~repro.sim.engine.SimResult.potentials`.
"""

from __future__ import annotations

from ..hw.platform import Platform
from ..mapping.mapping import gpu_only_mapping
from ..sim.engine import SimResult, simulate
from ..zoo.layers import ModelSpec

__all__ = ["baseline_result"]


def baseline_result(workload: list[ModelSpec], platform: Platform) -> SimResult:
    """Simulate the paper's baseline: every DNN whole on the GPU."""
    return simulate(workload, gpu_only_mapping(workload), platform)

