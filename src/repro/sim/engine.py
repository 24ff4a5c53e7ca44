"""Execution simulator facade: mapping -> per-DNN steady-state throughput.

This is the drop-in substitute for "run the workload on the Orange Pi 5 and
record inferences/s" (see DESIGN.md).  All managers, the estimator-training
dataset and every experiment observe the platform exclusively through
:func:`simulate` and :func:`simulate_batch`, and every solve they trigger
takes one path: the C kernel when it loads, the scalar oracle otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..zoo.layers import ModelSpec
from . import _cext
from .contention import (
    ContentionSolution,
    solve_steady_state,
    solve_steady_state_batch,
)
from .demands import compute_stage_demands
from .tables import PlatformTables

__all__ = ["SimResult", "simulate", "simulate_batch"]

_fallback_warned = False


@dataclass(frozen=True)
class SimResult:
    """Steady-state outcome of one mapping."""

    workload_names: tuple[str, ...]
    rates: np.ndarray              # inferences/s per DNN
    ideal_rates: np.ndarray        # GPU-solo rate per DNN (paper's t_ideal)
    solution: ContentionSolution

    @property
    def potentials(self) -> np.ndarray:
        """Paper's potential throughput P = t_current / t_ideal per DNN."""
        return self.rates / self.ideal_rates

    @property
    def average_throughput(self) -> float:
        """Paper's T = (sum of per-DNN rates) / N, in inferences/s."""
        return float(self.rates.mean())

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}={r:.2f}/s" for n, r in zip(self.workload_names, self.rates)
        )
        return f"SimResult({pairs})"


def simulate(workload: list[ModelSpec], mapping: Mapping,
             platform: Platform) -> SimResult:
    """Steady-state per-DNN throughput of ``mapping`` on ``platform``."""
    return simulate_batch(workload, [mapping], platform)[0]


def _warn_scalar_fallback() -> None:
    global _fallback_warned
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            "C contention-solver kernel unavailable (no C compiler, or the "
            "build or load failed); solving with the scalar numpy oracle",
            RuntimeWarning, stacklevel=3)


def simulate_batch(workload: list[ModelSpec], mappings: list[Mapping],
                   platform: Platform,
                   tables: PlatformTables | None = None) -> list[SimResult]:
    """Steady-state throughput of several mappings of the same workload.

    Solves all fixed points in one call to the C kernel
    (:func:`repro.sim.contention.solve_steady_state_batch`), which is what
    makes MCTS rollout batches and scenario sweeps cheap.  On a host where
    the kernel cannot be built or loaded, each mapping is solved by the
    scalar oracle :func:`repro.sim.contention.solve_steady_state` instead,
    after a :class:`RuntimeWarning` issued once per process; the results
    are the same bits either way.

    ``tables`` carries what every solve on ``platform`` shares (see
    :mod:`repro.sim.tables`); an :class:`~repro.sim.cache.EvaluationCache`
    passes its own.  Without it the call builds a throwaway one, so
    results never depend on it.
    """
    if not mappings:
        return []
    if tables is None:
        tables = PlatformTables(platform)
    elif tables.platform is not platform and tables.platform != platform:
        raise ValueError(
            f"tables were built for {tables.platform.name!r}, not for "
            f"{platform.name!r}")
    demand_sets = [compute_stage_demands(workload, m, platform, tables)
                   for m in mappings]
    num_dnns = len(workload)
    if _cext.load_solver() is not None:
        solutions = solve_steady_state_batch(demand_sets, num_dnns, platform,
                                             tables=tables)
    else:
        _warn_scalar_fallback()
        solutions = [solve_steady_state(d, num_dnns, platform)
                     for d in demand_sets]
    ideal = tables.ideal_rates(workload)
    names = tuple(m.name for m in workload)
    return [
        SimResult(workload_names=names, rates=sol.rates, ideal_rates=ideal,
                  solution=sol)
        for sol in solutions
    ]
