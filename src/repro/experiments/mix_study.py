"""The shared mix study behind Figs. 5, 6, 7 and 9.

Sec. V-A evaluates every manager on 6 random mixes of 3, 4 and 5 concurrent
DNNs (18 mixes, 72 DNN instances).  Each experiment consumes a different
projection of the same runs, so the study executes once per context and is
memoised on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.priorities import dynamic_priorities, static_priorities
from ..sim import SimResult, simulate
from ..zoo.layers import ModelSpec
from .common import ExperimentContext, sample_mix

__all__ = ["MixOutcome", "MixStudy", "run_mix_study", "MANAGER_ORDER"]

MANAGER_ORDER = ("baseline", "mosaic", "odmdef", "ga", "omniboost",
                 "rankmap_s", "rankmap_d")


@dataclass
class MixOutcome:
    """All managers' results on one mix."""

    size: int
    mix_index: int
    critical_index: int                 # the user-prioritised DNN (heaviest)
    dynamic_priorities: np.ndarray
    results: dict[str, SimResult]

    def normalized_throughput(self, manager: str) -> float:
        base = self.results["baseline"].average_throughput
        return self.results[manager].average_throughput / base

    def critical_potential(self, manager: str) -> float:
        return float(self.results[manager].potentials[self.critical_index])


@dataclass
class MixStudy:
    """The full 3x6-mix sweep over every manager."""

    outcomes: list[MixOutcome]
    sizes: tuple[int, ...]

    def by_size(self, size: int) -> list[MixOutcome]:
        return [o for o in self.outcomes if o.size == size]

    def all_potentials(self, manager: str) -> np.ndarray:
        return np.concatenate([
            o.results[manager].potentials for o in self.outcomes
        ])


def run_mix_study(ctx: ExperimentContext,
                  sizes: tuple[int, ...] = (3, 4, 5)) -> MixStudy:
    """Run (or return the memoised) mix study for ``ctx``."""
    if ctx._mix_study is not None:
        return ctx._mix_study

    rng = np.random.default_rng(ctx.preset.seed + 42)
    managers = ctx.managers()
    outcomes: list[MixOutcome] = []
    for size in sizes:
        for mix_index in range(ctx.preset.mixes_per_size):
            workload = sample_mix(rng, size)
            outcomes.append(
                _run_one_mix(ctx, managers, workload, size, mix_index))
    study = MixStudy(outcomes=outcomes, sizes=sizes)
    ctx._mix_study = study
    return study


def _run_one_mix(ctx: ExperimentContext, managers, workload: list[ModelSpec],
                 size: int, mix_index: int) -> MixOutcome:
    critical = int(np.argmax([m.macs for m in workload]))
    p_static = static_priorities(len(workload), critical)
    p_dynamic = dynamic_priorities(workload)

    results: dict[str, SimResult] = {}
    for name in MANAGER_ORDER:
        decision = managers[name].plan(workload, p_static)
        results[name] = simulate(workload, decision.mapping, ctx.platform)
    return MixOutcome(
        size=size, mix_index=mix_index,
        critical_index=critical,
        dynamic_priorities=p_dynamic,
        results=results,
    )
