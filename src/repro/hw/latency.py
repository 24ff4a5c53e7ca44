"""Roofline-style per-layer latency model.

For a layer ``l`` on component ``c``::

    compute_t = macs / (peak * eff(type) * utilisation) + elem_ops / elem_rate
    memory_t  = (ifm + ofm + weights bytes) / mem_bw
    latency   = dispatch_overhead + max(compute_t, memory_t)

Weights are streamed from DRAM every inference (model working sets exceed
on-chip caches on the Orange Pi 5 class of device), so weight bytes count
toward the memory roof.

These functions only compute; production reads their results from
:func:`repro.sim.tables.tables_for`, once per model and platform.
"""

from __future__ import annotations

from ..zoo.layers import BlockSpec, LayerSpec, ModelSpec
from .component import ComputeComponent

__all__ = ["layer_latency", "block_latency", "model_latency", "solo_throughput"]


def layer_latency(layer: LayerSpec, comp: ComputeComponent) -> float:
    """Seconds to execute ``layer`` once, alone, on ``comp``."""
    compute_t = 0.0
    if layer.macs > 0:
        eff = comp.efficiency_for(layer.op_type)
        util = comp.utilisation(layer.macs, layer.ifm[0], layer.ofm[0])
        compute_t += layer.macs / (comp.peak_macs_per_s * eff * util)
    if layer.elem_ops > 0:
        compute_t += layer.elem_ops / comp.elem_ops_per_s
    bytes_moved = layer.input_bytes + layer.output_bytes + layer.weight_bytes
    memory_t = bytes_moved / comp.mem_bw_bytes_per_s
    return comp.dispatch_overhead_s + max(compute_t, memory_t)


def block_latency(block: BlockSpec, comp: ComputeComponent) -> float:
    """Seconds to execute every layer of ``block`` once on ``comp``."""
    return sum(layer_latency(l, comp) for l in block.layers)


def block_latencies(model: ModelSpec, comp: ComputeComponent) -> list[float]:
    """Per-block latencies of ``model`` on ``comp``."""
    return [block_latency(b, comp) for b in model.blocks]


def model_latency(model: ModelSpec, comp: ComputeComponent) -> float:
    """End-to-end single-inference latency of the whole model on ``comp``."""
    return sum(block_latencies(model, comp))


def solo_throughput(model: ModelSpec, comp: ComputeComponent) -> float:
    """Inferences/s of the unpartitioned model running alone on ``comp``.

    On the platform's GPU this is the paper's ``t_ideal`` reference used by
    the potential-throughput metric P.
    """
    return 1.0 / model_latency(model, comp)
