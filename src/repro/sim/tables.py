"""Per-platform solver tables: one set per platform value per process.

Everything a contention solve needs that depends on the platform but not
on the mapping lives on one :class:`PlatformTables`:

* the interference table ``gamma[c, n]`` (one per workload size);
* the per-component sharing biases κ and head-of-line coefficients;
* the GPU-solo ideal rate of each model (the paper's ``t_ideal``);
* each model's per-block latencies and layer counts on each component,
  which :func:`~repro.sim.demands.compute_stage_demands` reads;
* each model's packer table and, per workload size, the constants
  above in one vector, which the C stage packer reads (see
  :meth:`PlatformTables.model_tables` and
  :meth:`PlatformTables.packer_constants`).

:func:`tables_for` hands out the one instance per platform value
(:class:`~repro.hw.platform.Platform` hashes by value, so presets
rebuilt per scenario share it); every production reader goes through
it, and only tests build private, cold instances.  The tables hold
exactly the values the per-call code would compute, so a result never
depends on whether, or how warm, a table was.  Model tables are keyed
by model name, as the cache key is (the zoo registry holds one spec per
name), and built once per model: 16.5 KB for all 23 pool models on the
Orange Pi 5.  Stage demands are not memoised: the C packer computes
them on every call faster than Python could look them up.
"""

from __future__ import annotations

import functools

import numpy as np

from ..hw.latency import block_latencies
from ..hw.platform import Platform
from ..zoo.layers import ModelSpec

__all__ = ["PlatformTables", "tables_for"]


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
        self._gamma: dict[int, np.ndarray] = {}
        self._constants: dict[int, np.ndarray] = {}
        self._ideal: dict[str, float] = {}
        self._blocks: dict[tuple, tuple[list[float], list[int]]] = {}
        self._slots: dict[str, tuple[int, int]] = {}
        self._arena = np.empty(0)

    def gamma(self, num_dnns: int) -> np.ndarray:
        """The interference table for workloads of ``num_dnns`` DNNs."""
        table = self._gamma.get(num_dnns)
        if table is None:
            table = self._gamma[num_dnns] = _interference_table(
                self.platform, num_dnns)
        return table

    def packer_constants(self, num_dnns: int) -> np.ndarray:
        """``hol | kappa | gamma``: the head-of-line coefficients, the
        sharing biases and the flattened :meth:`gamma` table for
        ``num_dnns`` DNNs, in one vector for the C stage packer."""
        consts = self._constants.get(num_dnns)
        if consts is None:
            consts = self._constants[num_dnns] = np.concatenate(
                (self.hol, self.kappa, self.gamma(num_dnns).ravel()))
        return consts

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

    def model_tables(self, workload: list[ModelSpec],
                     ) -> tuple[list[tuple[int, int]], np.ndarray]:
        """``(rows, arena)``, the C stage packer's view of ``workload``.

        ``rows`` holds one ``(blocks, offset)`` pair per model; ``arena``
        is a float64 vector holding, at each row's offset, its model's
        table of ``num_comp + 2`` rows of one entry per block: the block
        latencies on each component, the link's seconds to hand each
        block its input, and the layer counts.  A model's table is built
        the first time any workload holds it.
        """
        slots = self._slots
        rows = []
        for model in workload:
            slot = slots.get(model.name)
            if slot is None:
                slot = self._add_model_table(model)
            rows.append(slot)
        return rows, self._arena

    def _add_model_table(self, model: ModelSpec) -> tuple[int, int]:
        platform = self.platform
        transfer = platform.link.transfer_time
        blocks = model.blocks
        table = np.array(
            [self.block_costs(model, c)[0]
             for c in range(platform.num_components)]
            + [[transfer(block.input_bytes) for block in blocks],
               [len(block.layers) for block in blocks]], dtype=np.float64)
        slot = self._slots[model.name] = (len(blocks), self._arena.size)
        self._arena = np.concatenate((self._arena, table.ravel()))
        return slot

    def ideal_rates(self, workload: list[ModelSpec]) -> np.ndarray:
        """GPU-solo rate of each model of ``workload``, a fresh array."""
        ideal = self._ideal
        for model in workload:
            if model.name not in ideal:
                ideal[model.name] = self.platform.ideal_throughput(model)
        return np.array([ideal[m.name] for m in workload])


@functools.cache
def tables_for(platform: Platform) -> PlatformTables:
    """The process's one :class:`PlatformTables` for ``platform``'s value."""
    return PlatformTables(platform)
