"""Fig. 8 — dynamic 4-DNN arrival scenario: RankMap_D vs OmniBoost.

Arrivals every 150 s: Inception-ResNet-V1 (t=0), AlexNet (t=150),
SqueezeNet-V1 (t=300), ResNet-50 (t=450); horizon 600 s.  The paper's
reading: both managers serve Inception at ideal throughput while alone;
as the system oversubscribes, OmniBoost ends with the higher average T
(18 vs 14 inf/s) but starves Inception and ResNet-50, while RankMap_D
keeps every DNN progressing.
"""

from __future__ import annotations

import numpy as np

from ..metrics import STARVATION_EPSILON
from ..sim import run_dynamic_scenario
from ..utils import render_table
from ..workloads import FIG8_ARRIVALS, FIG8_HORIZON, fig8_events
from .common import ExperimentContext, ExperimentResult

__all__ = ["ARRIVALS", "run"]

ARRIVALS = FIG8_ARRIVALS
HORIZON = FIG8_HORIZON


def run(ctx: ExperimentContext) -> ExperimentResult:
    managers = ctx.managers()
    sample_times = np.arange(0.0, HORIZON, 10.0)
    rows: list[list] = []
    series: dict[str, dict[str, np.ndarray]] = {}
    summaries: list[str] = []

    for manager_name in ("rankmap_d", "omniboost"):
        timeline = run_dynamic_scenario(fig8_events(),
                                        managers[manager_name].plan,
                                        ctx.platform, HORIZON)
        series[manager_name] = {}
        starved_names = []
        for _, dnn in ARRIVALS:
            s = timeline.potential_series(dnn, sample_times)
            series[manager_name][dnn] = s
            final = timeline.final_potentials().get(dnn, float("nan"))
            min_p = timeline.min_potential(dnn)
            end_starved = final < STARVATION_EPSILON
            if end_starved:
                starved_names.append(dnn)
            rows.append([manager_name, dnn, float(min_p), float(final),
                         "yes" if end_starved else "no"])
        avg_t = timeline.time_average_throughput()
        rows.append([manager_name, "TIME_AVG_T", avg_t, "", ""])
        summaries.append(
            f"{manager_name}: time-avg T={avg_t:.2f} inf/s, "
            f"starved at end: {starved_names or 'none'}"
        )

    text = "\n\n".join([
        render_table(["manager", "dnn", "min_P", "final_P", "starved_at_end"],
                     rows, title="Fig. 8: dynamic arrival scenario"),
        "\n".join(summaries),
        "(paper: OmniBoost T=18 vs RankMap_D T=14, but OmniBoost starves "
        "Inception-ResNet-V1 and ResNet-50 once oversubscribed)",
    ])
    return ExperimentResult(experiment="fig08_dynamic",
                            headers=["manager", "dnn", "min_P", "final_P",
                                     "starved_at_end"],
                            rows=rows, text=text,
                            extras={"series": series,
                                    "sample_times": sample_times})
