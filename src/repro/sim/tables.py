"""Per-platform solver tables, built once and reused by every solve.

Everything a contention solve needs that depends on the platform but not
on the mapping lives on one :class:`PlatformTables`:

* the interference table ``gamma[c, n]`` (one per workload size);
* the per-component sharing biases κ and head-of-line coefficients;
* the GPU-solo ideal rate of each model (the paper's ``t_ideal``);
* each model's per-block latencies and layer counts on each component;
* a memo of :class:`~repro.sim.demands.StageDemand` objects, filled by
  :func:`~repro.sim.demands.compute_stage_demands`.

An :class:`~repro.sim.cache.EvaluationCache` owns one, because a cache is
already bound to one platform, and hands it to
:func:`~repro.sim.engine.simulate_batch` with every batch of misses.  A
call made without one builds a throwaway instance.  Tables and memo hold
exactly the values the per-call code computes, so a result never depends
on whether, or how warm, a table was.

Demand memo key
---------------

``(dnn_index, model name, component, block_start, block_end, handoff)``
— every input of a stage's demand except the platform, which the owning
instance fixes.  The model name stands for the spec, as in the cache key
(the zoo registry holds one spec per name); ``dnn_index`` is part of the
key because the memoised :class:`StageDemand` carries its stage, and
``handoff`` because the receiving stage pays the feature-map transfer.
The memo holds at most :data:`DEMAND_MEMO_MAX` entries and is emptied
when it would grow past that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..hw.latency import block_latencies
from ..hw.platform import Platform
from ..zoo.layers import ModelSpec

if TYPE_CHECKING:
    from .demands import StageDemand

__all__ = ["DEMAND_MEMO_MAX", "PlatformTables"]

#: Bound on memoised stage demands per platform, about 30 MB at ~900 B
#: per entry.  The zoo's 24 models at up to five DNN positions on three
#: components have about 70k distinct stages, so a long-lived cache that
#: explores widely can reach it.
DEMAND_MEMO_MAX = 32_768


def _interference_table(platform: Platform, num_dnns: int) -> np.ndarray:
    """``gamma[c, n]`` = demand inflation of component ``c`` with ``n``
    resident DNN contexts; indexing the table reproduces the scalar calls
    to :meth:`ComputeComponent.interference_factor` exactly."""
    table = np.empty((platform.num_components, num_dnns + 1))
    for c in range(platform.num_components):
        comp = platform.component(c)
        for n in range(num_dnns + 1):
            table[c, n] = comp.interference_factor(n)
    return table


class PlatformTables:
    """The mapping-independent part of every solve on one platform."""

    def __init__(self, platform: Platform):
        self.platform = platform
        components = platform.components
        self.kappa = np.array([c.sharing_bias for c in components])
        self.hol = np.array([c.hol_blocking for c in components])
        self.demands: dict[tuple, StageDemand] = {}
        self._gamma: dict[int, np.ndarray] = {}
        self._ideal: dict[str, float] = {}
        self._blocks: dict[tuple, tuple[list[float], list[int]]] = {}

    def gamma(self, num_dnns: int) -> np.ndarray:
        """The interference table for workloads of ``num_dnns`` DNNs."""
        table = self._gamma.get(num_dnns)
        if table is None:
            table = self._gamma[num_dnns] = _interference_table(
                self.platform, num_dnns)
        return table

    def block_costs(self, model: ModelSpec,
                    component: int) -> tuple[list[float], list[int]]:
        """``(latencies, layers)`` of each block of ``model`` on
        ``component``: the latency list :func:`block_latencies` returns
        and the layer (kernel launch) counts."""
        key = (model.name, component)
        costs = self._blocks.get(key)
        if costs is None:
            costs = self._blocks[key] = (
                block_latencies(model, self.platform.component(component)),
                [len(block.layers) for block in model.blocks])
        return costs

    def ideal_rates(self, workload: list[ModelSpec]) -> np.ndarray:
        """GPU-solo rate of each model of ``workload``, a fresh array."""
        ideal = self._ideal
        for model in workload:
            if model.name not in ideal:
                ideal[model.name] = self.platform.ideal_throughput(model)
        return np.array([ideal[m.name] for m in workload])

    def remember(self, key: tuple, demand: StageDemand) -> None:
        """Memoise one stage demand, emptying a full memo first."""
        if len(self.demands) >= DEMAND_MEMO_MAX:
            self.demands.clear()
        self.demands[key] = demand
