"""Extension study — edge-data-center traces scored against SLA tiers.

The paper's introduction motivates RankMap with edge data centers where
users in different SLA groups submit DNN queries, but its evaluation uses
fixed mixes and two scripted scenarios.  This study closes that loop:
Poisson session traces (arrivals/departures) are replayed through three
managers, every DNN carries a gold/silver/bronze tier, and each timeline
is scored by the tiers' minimum-potential guarantees.  Expected shape:
RankMap_S has the lowest violation fraction and the highest gold-tier mean
P; the all-on-GPU baseline violates the most; OmniBoost sits between on
violations but below RankMap on the gold tier (it has no priority signal).
"""

from __future__ import annotations

import numpy as np

from ..core.predictor import EstimatorPredictor
from ..core import RankMap, RankMapConfig
from ..baselines import GpuBaseline, OmniBoost
from ..metrics import STARVATION_EPSILON
from ..sim import run_dynamic_scenario
from ..utils import render_table
from ..workloads import (
    TraceConfig,
    assign_tiers,
    evaluate_sla,
    poisson_trace,
)
from .common import ExperimentContext, ExperimentResult

__all__ = ["run"]

#: Light-to-mid pool so a trace's concurrent set stays schedulable.
TRACE_POOL = ("alexnet", "squeezenet", "squeezenet_v2", "mobilenet",
              "mobilenet_v2", "shufflenet", "resnet12", "googlenet")


def _managers(ctx: ExperimentContext) -> dict:
    predictor = EstimatorPredictor(ctx.artifacts.estimator,
                                   ctx.artifacts.embedder)
    return {
        "baseline": GpuBaseline(),
        "omniboost": OmniBoost(ctx.platform, predictor,
                               ctx.mcts_config(600)),
        "rankmap_s": RankMap(
            ctx.platform, predictor,
            RankMapConfig(mode="static", mcts=ctx.mcts_config(700),
                          board_validation_top_k=4)),
    }


def run(ctx: ExperimentContext) -> ExperimentResult:
    preset = ctx.preset
    num_traces = max(1, preset.mixes_per_size // 2)
    config = TraceConfig(horizon_s=480.0, arrival_rate_per_s=1 / 40,
                         mean_session_s=200.0, max_concurrent=4,
                         pool=TRACE_POOL)

    rows: list[list] = []
    summary: dict[str, dict[str, float]] = {}
    for name, manager in _managers(ctx).items():
        violation_fracs, gold_means, starved = [], [], 0
        for t in range(num_traces):
            rng = np.random.default_rng(preset.seed + 1000 + t)
            events = poisson_trace(rng, config)
            if not events:
                continue
            models = {e.model.name: e.model for e in events
                      if e.model is not None}
            assignment = assign_tiers(list(models.values()))

            def planner(workload, priorities, m=manager, a=assignment):
                vector = np.array([a.tiers[x.name].priority
                                   for x in workload])
                return m.plan(workload, vector)

            timeline = run_dynamic_scenario(events, planner, ctx.platform,
                                            config.horizon_s)
            report = evaluate_sla(timeline, assignment, settle_seconds=30.0)
            violation_fracs.append(report.violation_fraction)
            gold_means.append(report.mean_potential_by_tier.get("gold",
                                                                np.nan))
            for segment in timeline.segments:
                if segment.t_start < 30.0:
                    continue
                # A DNN waiting out a decision gap unmapped (rate 0) is
                # not starved, as in Timeline.min_potential.
                starved += sum(p < STARVATION_EPSILON
                               for name, p in segment.potentials.items()
                               if segment.rates.get(name, 0.0) > 0.0)
        summary[name] = {
            "violation_frac": float(np.mean(violation_fracs)),
            "gold_mean_p": float(np.nanmean(gold_means)),
            "starved_segments": starved,
        }
        rows.append([name, summary[name]["violation_frac"],
                     summary[name]["gold_mean_p"], starved])

    best = min(summary, key=lambda k: summary[k]["violation_frac"])
    text = "\n\n".join([
        render_table(
            ["manager", "sla_violation_frac", "gold_mean_P",
             "starved_segments"],
            rows,
            title=(f"Extension: {num_traces} Poisson edge traces vs SLA "
                   "tiers (gold/silver/bronze)")),
        (f"lowest violation fraction: {best} "
         "(expected: rankmap_s; extension — no paper reference values)"),
    ])
    return ExperimentResult(
        experiment="trace_study",
        headers=["manager", "sla_violation_frac", "gold_mean_P",
                 "starved_segments"],
        rows=rows, text=text,
    )
