"""Extension study — throughput/power co-optimisation (DESIGN.md §6).

Not a paper figure: the paper optimises throughput only, and its follow-up
(MapFormer, reference [2]) adds the power axis.  This study sweeps the
power-penalty weight λ of :class:`repro.core.power.PowerAwareRankMap` over
a set of mixes and reports, per λ: average normalised throughput T, mean
board draw, and energy efficiency (inferences per joule).  Expected shape:
λ = 0 matches plain RankMap_D; growing λ sheds watts faster than
throughput (efficiency rises), until over-penalisation parks everything on
the LITTLE cluster and T collapses.  Nothing may starve at any λ.
"""

from __future__ import annotations

import numpy as np

from ..core import PowerAwareRankMap, RankMapConfig
from ..core.predictor import EstimatorPredictor
from ..hw import energy_report, orange_pi_5_power
from ..metrics import STARVATION_EPSILON, baseline_result
from ..sim import simulate
from ..utils import render_table
from ..workloads import sample_mix
from .common import ExperimentContext, ExperimentResult

__all__ = ["LAMBDAS", "run"]

#: Power-penalty weights swept (λ = 0 is power-oblivious RankMap_D).
LAMBDAS = (0.0, 0.5, 2.0, 8.0)


def run(ctx: ExperimentContext) -> ExperimentResult:
    power = orange_pi_5_power()
    predictor = EstimatorPredictor(ctx.artifacts.estimator,
                                   ctx.artifacts.embedder)
    rng = np.random.default_rng(ctx.preset.seed + 77)
    mixes = [sample_mix(rng, 3) for _ in range(ctx.preset.mixes_per_size)]

    rows: list[list] = []
    by_lambda: dict[float, dict[str, float]] = {}
    for lam in LAMBDAS:
        manager = PowerAwareRankMap(
            ctx.platform, predictor, power,
            # Aggressive power penalties concentrate MCTS's candidates in
            # low-power corners; a wider validated set keeps a
            # starvation-clearing option on the table.
            RankMapConfig(mode="dynamic", mcts=ctx.mcts_config(500),
                          board_validation_top_k=8),
            objective="penalty", power_weight=lam,
        )
        norm_t, watts, eff, min_p = [], [], [], []
        for mix in mixes:
            decision = manager.plan(mix)
            result = simulate(mix, decision.mapping, ctx.platform)
            report = energy_report(mix, decision.mapping, ctx.platform,
                                   power)
            base = baseline_result(mix, ctx.platform)
            norm_t.append(result.average_throughput
                          / max(base.average_throughput, 1e-12))
            watts.append(report.system_watts)
            eff.append(report.inferences_per_joule)
            min_p.append(float(result.potentials.min()))
        summary = {
            "norm_t": float(np.mean(norm_t)),
            "watts": float(np.mean(watts)),
            "inf_per_j": float(np.mean(eff)),
            "min_p": float(np.min(min_p)),
        }
        by_lambda[lam] = summary
        rows.append([lam, summary["norm_t"], summary["watts"],
                     summary["inf_per_j"], summary["min_p"],
                     "yes" if summary["min_p"] < STARVATION_EPSILON
                     else "no"])

    frugal = by_lambda[LAMBDAS[-1]]
    plain = by_lambda[0.0]
    text = "\n\n".join([
        render_table(
            ["lambda", "norm_T", "board_W", "inf_per_J", "min_P",
             "starved"],
            rows,
            title="Extension: power-aware RankMap, penalty-weight sweep"),
        (f"largest lambda saves "
         f"{(1 - frugal['watts'] / plain['watts']):.0%} board power "
         f"at {(1 - frugal['norm_t'] / max(plain['norm_t'], 1e-12)):.0%} "
         "normalised-throughput cost (extension; no paper reference "
         "values)"),
    ])
    return ExperimentResult(
        experiment="power_study",
        headers=["lambda", "norm_T", "board_W", "inf_per_J", "min_P",
                 "starved"],
        rows=rows, text=text,
    )
