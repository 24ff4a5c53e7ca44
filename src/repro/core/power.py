"""Power-aware RankMap (extension; see DESIGN.md §6).

``PowerAwareRankMap`` keeps the paper's machinery — estimator-scored MCTS,
priority weighting, starvation disqualification — and folds an estimated
board power draw into the reward, the co-optimisation the authors pursue
in their MapFormer follow-up (reference [2] of the paper).

Per-candidate power is estimated analytically: stage service demands come
from the same layer-latency model every manager profiles with, utilisation
per component is (predicted rate x interference-inflated demand) summed
over resident stages — the exact busy computation
:func:`repro.hw.energy.energy_report` measures with, so search-time watts
and board-validated watts price contention identically — and the platform
power model converts utilisations to watts.  Two objectives are offered:

* ``"penalty"`` — ``reward - power_weight · watts``: a soft power cap
  whose weight dials the throughput/power trade-off.
* ``"efficiency"`` — ``reward / watts``: maximise inferences per joule.

Both keep the starvation guard: disqualified mappings stay disqualified no
matter how little power they would draw.
"""

from __future__ import annotations

import numpy as np

from ..hw.energy import (
    EnergyReport,
    PlatformPower,
    energy_report,
    inflated_component_utilisation,
)
from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..search.reward import DISQUALIFIED
from ..sim.demands import compute_stage_demands
from ..zoo.layers import ModelSpec
from .manager import RankMap, RankMapConfig
from .predictor import RatePredictor

__all__ = ["PowerAwareRankMap"]


class PowerAwareRankMap(RankMap):
    """RankMap with power folded into the search objective."""

    def __init__(self, platform: Platform, predictor: RatePredictor,
                 power: PlatformPower,
                 config: RankMapConfig | None = None,
                 objective: str = "penalty",
                 power_weight: float = 0.5):
        if objective not in ("penalty", "efficiency"):
            raise ValueError(f"unknown power objective {objective!r}")
        if power_weight < 0:
            raise ValueError("power_weight must be non-negative")
        if not power.matches(platform):
            raise ValueError("power model does not match platform components")
        super().__init__(platform, predictor, config)
        self.power = power
        self.objective = objective
        self.power_weight = power_weight
        self.name = f"rankmap_p_{objective}"

    # ------------------------------------------------------------------
    def estimated_utilisation(self, workload: list[ModelSpec],
                              mapping: Mapping,
                              rates: np.ndarray) -> np.ndarray:
        """Raw per-component utilisation at predicted rates, unclipped.

        Delegates to the same interference-inflated busy computation
        :func:`repro.hw.energy.energy_report` measures with, so the
        search scores candidates against the power landscape board
        validation will confirm.  Predicted rates are not
        feasibility-constrained, so values above 1.0 (oversubscription)
        are possible — ``estimated_watts`` clips them before pricing.
        """
        demands = compute_stage_demands(workload, mapping, self.platform)
        return inflated_component_utilisation(demands, rates, self.platform)

    def estimated_watts(self, workload: list[ModelSpec], mapping: Mapping,
                        rates: np.ndarray) -> float:
        """Analytical board draw estimate for one candidate mapping."""
        util = self.estimated_utilisation(workload, mapping, rates)
        return self.power.system_watts(np.clip(util, 0.0, 1.0))

    def measured_energy(self, workload: list[ModelSpec],
                        mapping: Mapping) -> EnergyReport:
        """Ground-truth (simulated-board) energy report for a mapping."""
        return energy_report(workload, mapping, self.platform, self.power)

    def _adjust_rewards(self, workload, mappings, rates, rewards,
                        utilisations) -> np.ndarray:
        """Fold board power into each qualifying candidate's reward.

        Search prices the utilisation :meth:`estimated_utilisation`
        derives from predicted rates; board validation prices each
        mapping's measured utilisation, as :meth:`measured_energy` does.
        Disqualified candidates stay disqualified, so the best-margin
        fallback still outranks power.
        """
        for i in np.flatnonzero(rewards > DISQUALIFIED):
            util = (self.estimated_utilisation(workload, mappings[i], rates[i])
                    if utilisations is None else utilisations[i])
            watts = self.power.system_watts(np.clip(util, 0.0, 1.0))
            if self.objective == "penalty":
                rewards[i] -= self.power_weight * watts
            else:
                rewards[i] /= max(watts, 1e-9)
        return rewards
