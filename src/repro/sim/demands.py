"""Per-stage service demands.

A pipeline stage's *demand* is the component-time (seconds) it consumes per
inference: the sum of its blocks' layer latencies plus, when the previous
stage lives on a different component, the feature-map handoff cost charged
to the receiving stage.

:func:`compute_stage_demands` is the readable form of this rule, used by
the scalar oracle path (a host with no C compiler), the DES and the
baselines.  Production batch solves never build a :class:`StageDemand`:
the C packer ``pack_stages`` in ``_csolver.c`` splits the assignments and
computes every demand with the same arithmetic in the same order, so the
two agree bit for bit (``tests/property/test_stage_pack.py``).  The
stage sum therefore runs left to right from ``0.0`` and adds the handoff
afterwards; it is a plain loop because the builtin ``sum`` of floats
uses compensated summation from Python 3.12.  Demands are not memoised;
the block latencies and layer counts they sum are, in the platform's
one :func:`~repro.sim.tables.tables_for` set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.platform import Platform
from ..mapping.mapping import Mapping, Stage
from ..zoo.layers import ModelSpec
from .tables import PlatformTables, tables_for

__all__ = ["StageDemand", "compute_stage_demands"]


@dataclass(frozen=True)
class StageDemand:
    """A pipeline stage together with its per-inference service demand."""

    stage: Stage
    seconds_per_inference: float
    num_kernels: int  # layer/kernel launches per inference of this stage

    @property
    def dnn_index(self) -> int:
        return self.stage.dnn_index

    @property
    def component(self) -> int:
        return self.stage.component


def _stage_demand(model: ModelSpec, stage: Stage, tables: PlatformTables,
                  handoff: bool) -> StageDemand:
    """One stage's demand: its blocks' latencies summed left to right,
    then the handoff into its first block if it receives one."""
    latencies, layers = tables.block_costs(model, stage.component)
    seconds = 0.0
    for latency in latencies[stage.block_start : stage.block_end]:
        seconds += latency
    if handoff:
        nbytes = model.blocks[stage.block_start].input_bytes
        seconds += tables.platform.link.transfer_time(nbytes)
    kernels = sum(layers[stage.block_start : stage.block_end])
    return StageDemand(stage, seconds, kernels)


def compute_stage_demands(workload: list[ModelSpec], mapping: Mapping,
                          platform: Platform) -> list[StageDemand]:
    """Demands for every stage of ``mapping`` over ``workload``, from the
    block costs in ``platform``'s :func:`~repro.sim.tables.tables_for`."""
    mapping.validate_against(workload, platform.num_components)
    tables = tables_for(platform)
    demands: list[StageDemand] = []
    dnn_index = -1
    for stage in mapping.stages():
        index, comp, _, _ = stage
        if index != dnn_index:
            # A DNN's first stage receives no feature-map handoff.
            dnn_index, prev_comp = index, comp
            model = workload[index]
        demands.append(_stage_demand(model, stage, tables, prev_comp != comp))
        prev_comp = comp
    return demands
