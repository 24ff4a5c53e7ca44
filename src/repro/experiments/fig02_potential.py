"""Fig. 2 — potential throughput P distribution per DNN (Sec. II).

Same 300 random mappings as Fig. 1; reports the per-DNN quartiles of P.
The paper's key readings: Inception-V4's mean P is around 0.1 (the most
starvation-prone model) and more than 60 % of all DNN instances sit at
P <= 0.2.
"""

from __future__ import annotations

import numpy as np

from ..mapping import random_partition_mapping
from ..sim import simulate
from ..utils import render_table
from ..workloads import MOTIVATION_WORKLOAD, motivation_workload
from .common import ExperimentContext, ExperimentResult

__all__ = ["run"]


def run(ctx: ExperimentContext) -> ExperimentResult:
    workload = motivation_workload()
    rng = np.random.default_rng(ctx.preset.seed + 1)

    potentials = []
    for _ in range(ctx.preset.motivation_mappings):
        mapping = random_partition_mapping(
            workload, ctx.platform.num_components, rng)
        potentials.append(simulate(workload, mapping, ctx.platform).potentials)
    potentials = np.stack(potentials)  # (mappings, dnns)

    rows = []
    for i, name in enumerate(MOTIVATION_WORKLOAD):
        col = potentials[:, i]
        rows.append([
            name, float(col.mean()), float(np.percentile(col, 25)),
            float(np.median(col)), float(np.percentile(col, 75)),
            float(col.max()),
        ])
    frac_low = float((potentials <= 0.2).mean())
    rows.append(["ALL<=0.2_frac", frac_low, "", "", "", ""])

    inception_mean = potentials[:, 1].mean()
    text = render_table(
        ["dnn", "mean", "q25", "median", "q75", "max"], rows,
        title=("Fig. 2: potential P per DNN over random mappings "
               f"(paper: Inception-V4 mean ~0.1, ours {inception_mean:.2f}; "
               f"paper >60% of DNNs at P<=0.2, ours {frac_low:.0%})"),
    )
    return ExperimentResult(
        experiment="fig02_potential",
        headers=["dnn", "mean", "q25", "median", "q75", "max"],
        rows=rows, text=text,
    )
