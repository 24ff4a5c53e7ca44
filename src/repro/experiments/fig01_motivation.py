"""Fig. 1 — motivation: normalised T of random mappings vs the baseline.

Reproduces Sec. II: 300 random partition+assignment mappings of the
{SqueezeNet-V2, Inception-V4, ResNet-50, VGG-16} workload, the histogram of
average throughput T normalised by the all-on-GPU baseline, split into
mappings with and without a starved DNN, plus the headline statistics
(paper: 91 % beat the baseline; 30.2 % starve at least one DNN).
"""

from __future__ import annotations

import numpy as np

from ..mapping import random_partition_mapping
from ..metrics import STARVATION_EPSILON, baseline_result
from ..sim import simulate
from ..utils import render_histogram, render_table
from ..workloads import MOTIVATION_WORKLOAD, motivation_workload
from .common import ExperimentContext, ExperimentResult

__all__ = ["MOTIVATION_WORKLOAD", "run"]


def run(ctx: ExperimentContext) -> ExperimentResult:
    workload = motivation_workload()
    base = baseline_result(workload, ctx.platform)
    rng = np.random.default_rng(ctx.preset.seed + 1)

    normalized = []
    starved_flags = []
    for _ in range(ctx.preset.motivation_mappings):
        mapping = random_partition_mapping(
            workload, ctx.platform.num_components, rng)
        result = simulate(workload, mapping, ctx.platform)
        normalized.append(result.average_throughput / base.average_throughput)
        starved_flags.append(bool(
            (result.potentials < STARVATION_EPSILON).any()))
    normalized = np.asarray(normalized)
    starved_flags = np.asarray(starved_flags)

    beat = float((normalized > 1.0).mean())
    starve = float(starved_flags.mean())
    hi = normalized >= 2.4
    starve_hi = float(starved_flags[hi].mean()) if hi.any() else float("nan")

    rows = [
        ["mappings", len(normalized), "300", ""],
        ["beat_baseline_frac", beat, "0.91", "key observation 1"],
        ["starving_frac", starve, "0.302", "key observation 2"],
        ["starving_frac_T>=2.4", starve_hi, "~1.0", "key observation 2"],
        ["median_T_norm", float(np.median(normalized)), "~1.5", ""],
        ["max_T_norm", float(normalized.max()), "~4", "front steeper here"],
    ]
    text = "\n\n".join([
        render_table(["metric", "measured", "paper", "note"], rows,
                     title="Fig. 1 statistics (random mappings vs baseline)"),
        render_histogram(normalized[~starved_flags], bins=12,
                         title="Normalized T histogram (no DNN starved)"),
        render_histogram(normalized[starved_flags], bins=12,
                         title="Normalized T histogram (>=1 DNN starved)"),
    ])
    return ExperimentResult(
        experiment="fig01_motivation",
        headers=["metric", "measured", "paper", "note"],
        rows=rows, text=text,
    )
