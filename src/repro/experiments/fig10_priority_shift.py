"""Fig. 10 — RankMap_S tracking user priority shifts.

Workload: MobileNet-V2, SqueezeNet-V1, ShuffleNet, AlexNet, all present
from t=0.  Every 150 s the user moves the 0.7 priority to another DNN
(MobileNet-V2 -> ShuffleNet -> AlexNet -> SqueezeNet); RankMap_S re-maps
after each shift (the decision gap is visible as the paper's dashed grey
lines).  Expected: after each stage the newly critical DNN's P rises, and
no DNN ever starves.
"""

from __future__ import annotations

import numpy as np

from ..metrics import STARVATION_EPSILON
from ..sim import run_dynamic_scenario
from ..utils import render_table
from ..workloads import (
    FIG10_HORIZON,
    FIG10_STAGES,
    FIG10_WORKLOAD,
    fig10_events,
)
from .common import ExperimentContext, ExperimentResult

__all__ = ["WORKLOAD", "STAGES", "run"]

WORKLOAD = FIG10_WORKLOAD
#: (stage start time, critical DNN) — the paper's rotation order.
STAGES = FIG10_STAGES
HORIZON = FIG10_HORIZON


def run(ctx: ExperimentContext) -> ExperimentResult:
    timeline = run_dynamic_scenario(fig10_events(),
                                    ctx.managers()["rankmap_s"].plan,
                                    ctx.platform, HORIZON)

    rows: list[list] = []
    stage_bounds = [*(t for t, _ in STAGES), HORIZON]
    ever_starved = False
    for (start, critical), end in zip(STAGES, stage_bounds[1:]):
        # Sample mid-stage, past the re-mapping gap.
        probe = min(start + 100.0, (start + end) / 2 + 40.0)
        for name in WORKLOAD:
            p = timeline.potential_at(name, probe)
            p = float("nan") if p is None else p
            if p < STARVATION_EPSILON:
                ever_starved = True
            rows.append([f"{start:.0f}-{end:.0f}s", critical, name, p,
                         "<-- critical" if name == critical else ""])

    text = "\n\n".join([
        render_table(["stage", "critical", "dnn", "P", ""], rows,
                     title="Fig. 10: RankMap_S under user priority shifts"),
        f"any starvation observed: {'YES' if ever_starved else 'no'} "
        "(paper: none)",
    ])
    sample_times = np.arange(0.0, HORIZON, 10.0)
    series = {n: timeline.potential_series(n, sample_times) for n in WORKLOAD}
    return ExperimentResult(experiment="fig10_priority_shift",
                            headers=["stage", "critical", "dnn", "P", "note"],
                            rows=rows, text=text,
                            extras={"series": series,
                                    "sample_times": sample_times,
                                    "ever_starved": ever_starved})
