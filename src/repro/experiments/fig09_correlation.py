"""Fig. 9 — Pearson correlation of P with the priority vector (RankMap_D).

For every mix of the study, correlates the achieved potential vector with
the demand-derived dynamic priorities.  Paper averages: r = 0.85 (3 DNNs),
0.72 (4 DNNs), 0.44 (5 DNNs) — positive everywhere, degrading as the
platform saturates and RankMap_D deviates from the priorities to keep
every DNN alive.
"""

from __future__ import annotations

import numpy as np

from ..metrics import pearson_r
from ..utils import render_table
from .common import ExperimentContext, ExperimentResult
from .mix_study import run_mix_study

__all__ = ["run"]

_PAPER_AVG = {3: 0.85, 4: 0.72, 5: 0.44}


def run(ctx: ExperimentContext) -> ExperimentResult:
    study = run_mix_study(ctx)
    headers = ["size", "mix", "pearson_r"]
    rows: list[list] = []
    avg_rows: list[list] = []
    for size in study.sizes:
        values = []
        for outcome in study.by_size(size):
            r = pearson_r(outcome.results["rankmap_d"].potentials,
                          outcome.dynamic_priorities)
            rows.append([size, outcome.mix_index, r])
            values.append(r)
        avg_rows.append([size, "avg", float(np.mean(values))])
    rows.extend(avg_rows)

    paper_note = "  ".join(
        f"{s}DNNs: ours {row[2]:.2f} vs paper {_PAPER_AVG[s]}"
        for s, row in zip(study.sizes, avg_rows)
    )
    text = "\n\n".join([
        render_table(headers, rows,
                     title="Fig. 9: Pearson r between P and priorities p "
                           "(RankMap_D)"),
        paper_note,
    ])
    return ExperimentResult(experiment="fig09_correlation", headers=headers,
                            rows=rows, text=text)
