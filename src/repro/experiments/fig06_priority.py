"""Fig. 6 — potential P of the high-priority DNN per mix size.

For each mix the most demanding DNN is designated critical (priority 0.7
for RankMap_S).  The paper's headline: RankMap_S keeps the critical DNN's
P above 0.14 under any 4-DNN workload (peak 0.37) and improves it by up to
x57.5 over the baseline.
"""

from __future__ import annotations

import numpy as np

from ..utils import render_table
from .common import ExperimentContext, ExperimentResult
from .mix_study import MANAGER_ORDER, run_mix_study

__all__ = ["run"]


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = run_mix_study(ctx)
    headers = ["size", *MANAGER_ORDER, "rankmap_s_min", "rankmap_s_peak"]
    rows: list[list] = []
    ratio_lines: list[str] = []
    for size in study.sizes:
        outcomes = study.by_size(size)
        means = {
            m: float(np.mean([o.critical_potential(m) for o in outcomes]))
            for m in MANAGER_ORDER
        }
        s_values = [o.critical_potential("rankmap_s") for o in outcomes]
        rows.append([size, *(means[m] for m in MANAGER_ORDER),
                     float(np.min(s_values)), float(np.max(s_values))])
        ratios = {m: means["rankmap_s"] / max(means[m], 1e-9)
                  for m in MANAGER_ORDER if m != "rankmap_s"}
        pretty = "  ".join(f"{m}:x{r:.1f}" for m, r in ratios.items())
        ratio_lines.append(f"{size} DNNs - rankmap_s vs {pretty}")

    text = "\n\n".join([
        render_table(headers, rows,
                     title="Fig. 6: mean P of the high-priority DNN"),
        "RankMap_S critical-P ratios (paper at 4 DNNs: x57.5 baseline, "
        "x7.4 MOSAIC, x35.1 ODMDEF, x21.9 GA, x2.2 OmniBoost):\n"
        + "\n".join(ratio_lines),
    ])
    return ExperimentResult(experiment="fig06_priority", headers=headers,
                            rows=rows, text=text)
