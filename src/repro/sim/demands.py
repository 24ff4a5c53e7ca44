"""Per-stage service demands.

A pipeline stage's *demand* is the component-time (seconds) it consumes per
inference: the sum of its blocks' layer latencies plus, when the previous
stage lives on a different component, the feature-map handoff cost charged
to the receiving stage.

A stage's demand depends only on its model, position, component, block
range and handoff, so :func:`compute_stage_demands` can memoise it in the
solving platform's :class:`~repro.sim.tables.PlatformTables`; a memo miss
runs the same arithmetic in the same order, so a memoised demand equals a
freshly computed one bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.platform import Platform
from ..mapping.mapping import Mapping, Stage
from ..zoo.layers import ModelSpec
from .tables import PlatformTables

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
    """One stage's demand, computed afresh (a memo miss)."""
    latencies, layers = tables.block_costs(model, stage.component)
    seconds = sum(latencies[stage.block_start : stage.block_end])
    if handoff:
        nbytes = model.blocks[stage.block_start].input_bytes
        seconds += tables.platform.link.transfer_time(nbytes)
    kernels = sum(layers[stage.block_start : stage.block_end])
    return StageDemand(stage, seconds, kernels)


def compute_stage_demands(workload: list[ModelSpec], mapping: Mapping,
                          platform: Platform,
                          tables: PlatformTables | None = None,
                          ) -> list[StageDemand]:
    """Demands for every stage of ``mapping`` over ``workload``.

    Each stage's demand is looked up in, or added to, the memo of
    ``tables`` (which must be built for ``platform``; the memo key is in
    :mod:`repro.sim.tables`).  Without ``tables`` the call uses a
    throwaway instance, so every demand is computed afresh.
    """
    mapping.validate_against(workload, platform.num_components)
    if tables is None:
        tables = PlatformTables(platform)
    memo = tables.demands
    demands: list[StageDemand] = []
    dnn_index = -1
    for stage in mapping.stages():
        index, comp, start, end = stage
        if index != dnn_index:
            # A DNN's first stage receives no feature-map handoff.
            dnn_index, prev_comp = index, comp
            model = workload[index]
            name = model.name
        handoff = prev_comp != comp
        key = (index, name, comp, start, end, handoff)
        demand = memo.get(key)
        if demand is None:
            demand = _stage_demand(model, stage, tables, handoff)
            tables.remember(key, demand)
        demands.append(demand)
        prev_comp = comp
    return demands
