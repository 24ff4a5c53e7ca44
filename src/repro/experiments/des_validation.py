"""Extension study — analytical vs. discrete-event cross-validation.

Not a paper figure: the paper measures on a physical board, so its numbers
validate themselves.  Our substitute is an analytical fluid model, and
this study quantifies how much of its output survives a change of
modelling paradigm.  Random mappings of the Sec. II workload are executed
by both engines; we report per-DNN rate deviation, the correlation of
average-throughput orderings (the signal every manager consumes), and the
end-to-end latency percentiles only the event simulation can produce.
"""

from __future__ import annotations

import numpy as np

from ..estimator.metrics import spearman_r
from ..mapping import gpu_only_mapping, random_partition_mapping
from ..metrics import pearson_r
from ..sim import DesConfig, simulate, simulate_des
from ..utils import render_table
from ..workloads import motivation_workload
from .common import ExperimentContext, ExperimentResult

__all__ = ["run"]


def run(ctx: ExperimentContext) -> ExperimentResult:
    workload = motivation_workload()
    rng = np.random.default_rng(ctx.preset.seed + 99)
    num_mappings = max(10, ctx.preset.motivation_mappings // 10)

    analytical_t, des_t, deviations = [], [], []
    for _ in range(num_mappings):
        mapping = random_partition_mapping(
            workload, ctx.platform.num_components, rng)
        a = simulate(workload, mapping, ctx.platform).rates
        d = simulate_des(workload, mapping, ctx.platform).rates
        analytical_t.append(float(a.mean()))
        des_t.append(float(d.mean()))
        deviations.append(np.abs(d - a) / np.maximum(a, 1e-9))

    analytical_t = np.array(analytical_t)
    des_t = np.array(des_t)
    mean_dev = float(np.mean(deviations))
    rho = spearman_r(analytical_t, des_t)
    r = pearson_r(analytical_t, des_t)

    rows: list[list] = [
        ["mappings_compared", num_mappings, ""],
        ["mean_abs_rate_deviation", mean_dev, "per-DNN, relative"],
        ["throughput_spearman", rho, "ordering agreement"],
        ["throughput_pearson", r, ""],
    ]

    # Latency percentiles (event simulation only) for the GPU baseline.
    base = gpu_only_mapping(workload)
    des_base = simulate_des(workload, base, ctx.platform,
                            DesConfig(horizon_s=40.0, warmup_s=8.0))
    latency_rows = [
        [name,
         des_base.latency_percentile(name, 50),
         des_base.latency_percentile(name, 95),
         des_base.latency_percentile(name, 99)]
        for name in des_base.workload_names
    ]

    text = "\n\n".join([
        render_table(["metric", "value", "note"], rows,
                     title=("Extension: analytical vs discrete-event "
                            "cross-validation (Sec. II workload)")),
        render_table(["dnn", "p50_s", "p95_s", "p99_s"], latency_rows,
                     title="End-to-end latency, all-on-GPU baseline "
                           "(event simulation)"),
        ("agreement targets: mean deviation < 0.25, ordering Spearman "
         "> 0.8 (asserted in tests/test_sim_des.py)"),
    ])
    return ExperimentResult(
        experiment="des_validation",
        headers=["metric", "value", "note"],
        rows=rows, text=text,
    )
