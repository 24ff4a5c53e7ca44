"""Sec. V-D — run-time (decision latency) comparison.

Reports, for one 4-DNN workload, both the *modeled on-device* decision
latency (what the paper measures on the Orange Pi 5: Baseline ≈ instant,
MOSAIC/ODMDEF ≈ 1 s, OmniBoost/RankMap ≈ 30 s, GA slowest because every
chromosome is measured on the board) and the wall-clock of this
reproduction's implementation.
"""

from __future__ import annotations

from ..utils import render_table
from ..zoo import get_model
from .common import ExperimentContext, ExperimentResult
from .mix_study import MANAGER_ORDER

__all__ = ["RUNTIME_WORKLOAD", "run"]

RUNTIME_WORKLOAD = ("squeezenet_v2", "inception_v4", "resnet50", "vgg16")

_PAPER_NOTES = {
    "baseline": "fastest (direct GPU mapping)",
    "mosaic": "~1 s",
    "odmdef": "~1 s",
    "ga": "slowest: per-chromosome board runs",
    "omniboost": "~30 s",
    "rankmap_s": "~30 s",
    "rankmap_d": "~30 s",
}


def run(ctx: ExperimentContext) -> ExperimentResult:
    workload = [get_model(n) for n in RUNTIME_WORKLOAD]
    managers = ctx.managers()
    import numpy as np

    priorities = np.full(len(workload), 1.0 / len(workload))

    rows: list[list] = []
    for name in MANAGER_ORDER:
        manager = managers[name]
        decision = manager.plan(workload, priorities)
        rows.append([
            name,
            float(decision.decision_seconds),
            float(manager.last_wall_seconds),
            _PAPER_NOTES[name],
        ])

    modeled = {r[0]: r[1] for r in rows}
    ordering_ok = (
        modeled["baseline"] < modeled["mosaic"] <= modeled["odmdef"]
        < modeled["rankmap_d"] < modeled["ga"]
    )
    text = "\n\n".join([
        render_table(
            ["manager", "modeled_board_s", "wall_clock_s", "paper"],
            rows, title="Sec. V-D: decision latency per manager"),
        f"paper ordering (baseline < mosaic/odmdef < rankmap ~ omniboost "
        f"< ga) holds: {'yes' if ordering_ok else 'NO'}",
    ])
    return ExperimentResult(
        experiment="runtime_table",
        headers=["manager", "modeled_board_s", "wall_clock_s", "paper"],
        rows=rows, text=text,
    )
