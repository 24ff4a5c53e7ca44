"""Extension study — estimator sample efficiency (Table I, "fast training").

Table I credits RankMap (and OmniBoost) with "fast training" and faults
ODMDEF for needing "a considerable amount of data to achieve reliable
accuracy".  This study makes that row quantitative on our substrate:

* the multi-task estimator is trained on growing dataset sizes and scored
  by validation Spearman rank correlation — the property MCTS consumes
  (L2 is reported too);
* ODMDEF's internal linear-regression layer-cost model is fit on growing
  profiling budgets and scored by the relative error of its rate
  predictions on the same held-out workloads.

Expected shape: the estimator's ranking quality rises quickly and
saturates (it only has to *order* mappings), while the regression needs
far more data to pin down absolute layer costs — the asymmetry behind the
paper's qualitative claim.
"""

from __future__ import annotations

import numpy as np

from ..baselines import Odmdef
from ..estimator import (
    EstimatorConfig,
    EstimatorTrainConfig,
    ThroughputEstimator,
    generate_dataset,
    train_estimator,
)
from ..sim import simulate
from ..utils import render_table
from ..workloads import sample_mix
from .common import ExperimentContext, ExperimentResult

__all__ = ["run"]


def _estimator_curve(ctx: ExperimentContext, sizes: list[int],
                     epochs: int) -> list[tuple[int, float, float]]:
    """(size, val_l2, val_spearman) per training-set size."""
    preset = ctx.preset
    config = EstimatorConfig()
    embedder = ctx.artifacts.embedder
    rng = np.random.default_rng(preset.seed + 13)
    full = generate_dataset(ctx.platform, rng, max(sizes), config)

    points = []
    for size in sizes:
        subset = type(full)(full.samples[:size], config)
        model = ThroughputEstimator(
            np.random.default_rng(preset.seed + 17), config)
        report = train_estimator(
            model, subset, embedder,
            EstimatorTrainConfig(epochs=epochs, seed=preset.seed))
        points.append((size, float(report.final_val_loss),
                       float(report.val_spearman)))
    return points


def _odmdef_curve(ctx: ExperimentContext, budgets: list[int]
                  ) -> list[tuple[int, float]]:
    """(profiling runs, mean relative rate-prediction error) per budget."""
    preset = ctx.preset
    rng = np.random.default_rng(preset.seed + 19)
    probes = [sample_mix(rng, 3) for _ in range(6)]

    points = []
    for budget in budgets:
        manager = Odmdef(ctx.platform, profiling_runs=budget,
                         seed=preset.seed)
        errors = []
        for mix in probes:
            decision = manager.plan(mix)
            predicted = manager.last_predicted_rates
            if predicted is None:
                continue
            actual = simulate(mix, decision.mapping, ctx.platform).rates
            errors.append(np.abs(predicted - actual)
                          / np.maximum(actual, 1e-9))
        points.append((budget, float(np.mean(errors)) if errors
                       else float("nan")))
    return points


def run(ctx: ExperimentContext) -> ExperimentResult:
    preset = ctx.preset
    top = max(120, min(preset.dataset_samples, 1200))
    sizes = sorted({max(40, top // 8), max(80, top // 4),
                    max(120, top // 2), top})
    epochs = min(preset.estimator_epochs, 8)
    budgets = sorted({max(6, preset.odmdef_profiling_runs // 8),
                      max(12, preset.odmdef_profiling_runs // 2),
                      max(24, preset.odmdef_profiling_runs)})

    est_points = _estimator_curve(ctx, sizes, epochs)
    odm_points = _odmdef_curve(ctx, budgets)

    rows: list[list] = []
    for size, l2, rho in est_points:
        rows.append(["rankmap_estimator", size, l2, rho, ""])
    for budget, err in odm_points:
        rows.append(["odmdef_regression", budget, "", "", err])

    half_budget_rho = est_points[len(est_points) // 2][2]
    text = "\n\n".join([
        render_table(
            ["model", "train_samples", "val_l2", "val_spearman",
             "rate_rel_err"],
            rows,
            title="Extension: sample efficiency (Table I 'fast training' "
                  "row, quantified)"),
        (f"estimator reaches Spearman {half_budget_rho:.2f} at half "
         f"budget; ODMDEF regression error over budgets: "
         + ", ".join(f"{b}->{e:.2f}" for b, e in odm_points)),
    ])
    return ExperimentResult(
        experiment="sample_efficiency",
        headers=["model", "train_samples", "val_l2", "val_spearman",
                 "rate_rel_err"],
        rows=rows, text=text,
    )
