#!/usr/bin/env python
"""Closed-loop adaptation A/B: fine-tuned weights + pressure-fed routing.

Every other serving example runs an *open* loop: the estimator is
trained once offline and the dispatcher routes on its blind load
estimates, no matter what the fleet actually does.  This example closes
both loops against a **drifted** demand (the Poisson arrival rate
triples mid-run — ``FleetScenario.rate_shift``):

1. **Observe** — serve the drifted demand once with the frozen
   pre-drift estimator under ``least_loaded`` routing, recording
   telemetry (``observe=True``).
2. **Adapt** — ``ExperimentContext.refresh_estimator`` fine-tunes the
   estimator on the realized ``(workload, mapping, rates)`` segments,
   writing a refined artifact file with full lineage next to the base.
3. **A/B** — re-serve the *same* drifted demand twice: the frozen
   configuration (the base artifact, one-shot ``least_loaded``
   dispatch) against the adaptive one (the refined artifact,
   ``pressure_feedback`` routing with two feedback rounds, so dispatch
   re-routes on measured queue depth and denial rates).

The adaptive column must strictly reduce the fleet SLA violation
fraction — asserted, not just printed.  A final check re-runs the
adaptive sweep on one worker and two and asserts the reports are
bit-identical: the whole closed loop (fine-tuning included) keeps the
runner's determinism contract.

The fleet is deliberately heterogeneous: the jetson-class node
downgrades to the oracle with a warning on every pass (the artifact is
trained for the Orange Pi 5 board model), so the printed warnings are
the documented mismatch path at work, not a failure.

Usage:  python adaptive_serve.py [horizon_s] [workers]
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import ExperimentContext

LIGHT_POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")
NUM_NODES = 3
CAPACITY = 2
RATE = 1.0 / 12.0


def sweep(ctx, horizon, routing, estimator_path, feedback_rounds=0,
          observe=False, workers=None):
    """One fleet pass over the drifted demand; returns (results, report)."""
    results, _ = ctx.fleet_serve_sweep(
        routings=(routing,), num_nodes=NUM_NODES, traces_per_cell=1,
        horizon_s=horizon, arrival_rate_per_s=RATE, pool=LIGHT_POOL,
        capacity=CAPACITY, policy="warm", predictor="estimator",
        estimator_path=estimator_path, observe=observe,
        feedback_rounds=feedback_rounds,
        rate_shift=(horizon / 2.0, 3.0), max_workers=workers)
    return results, results[0].report


def ab_test(ctx, horizon, base, refined, workers) -> None:
    """Observe, adapt, then compare frozen vs adaptive on one demand."""
    # Phase 1: observe the drifted demand with the frozen weights.
    t0 = time.perf_counter()
    observed, _ = sweep(ctx, horizon, "least_loaded", base,
                        observe=True, workers=workers)
    ft = ctx.refresh_estimator(observed, refined)
    print(f"observed drifted demand in {time.perf_counter() - t0:.1f} s; "
          f"fine-tuned on {ft.rows} realized segments "
          f"({ft.steps} steps) -> {refined.name}")

    # Phase 2: the A/B on the same drifted demand.
    _, frozen_rep = sweep(ctx, horizon, "least_loaded", base,
                          workers=workers)
    adaptive_results, adaptive_rep = sweep(
        ctx, horizon, "pressure_feedback", refined, feedback_rounds=2,
        workers=workers)

    header = (f"{'configuration':>32s} {'violation':>10s} "
              f"{'session rate':>13s} {'abandoned':>10s} {'queue s':>8s}")
    print()
    print(header)
    print("-" * len(header))
    for label, rep in (("frozen + least_loaded", frozen_rep),
                       ("fine-tuned + pressure_feedback", adaptive_rep)):
        print(f"{label:>32s} {rep.sla_violation_fraction:>10.1%} "
              f"{rep.mean_session_rate:>13.2f} {rep.abandoned:>10d} "
              f"{rep.mean_queue_wait_s:>8.1f}")
    spread = (frozen_rep.sla_violation_fraction
              - adaptive_rep.sla_violation_fraction)
    print(f"\nclosed loop cuts SLA violation by {spread:.1%}")
    if adaptive_rep.sla_violation_fraction \
            >= frozen_rep.sla_violation_fraction:
        raise SystemExit("adaptation regression: the closed loop did not "
                         "reduce SLA violation on the drifted demand")

    # Determinism: the adaptive path is bit-identical for any worker
    # count (workers load the refined artifact by path).
    serial, _ = sweep(ctx, horizon, "pressure_feedback", refined,
                      feedback_rounds=2, workers=1)
    pooled, _ = sweep(ctx, horizon, "pressure_feedback", refined,
                      feedback_rounds=2, workers=2)
    identical = [r.report for r in serial] == [r.report for r in pooled]
    print(f"1-vs-2-worker adaptive reports bit-identical: {identical}")
    if not identical:
        raise SystemExit("determinism regression on the closed loop")


def main() -> None:
    horizon = float(sys.argv[1]) if len(sys.argv) > 1 else 480.0
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else None

    ctx = ExperimentContext(
        preset="tiny",
        results_dir=Path(tempfile.gettempdir()) / "repro_adaptive_demo")
    t0 = time.perf_counter()
    base = ctx.estimator_artifact_path()
    refined = base.with_name(f"{base.stem}_refined{base.suffix}")
    print(f"estimator artifact: {base} "
          f"(ready in {time.perf_counter() - t0:.1f} s)")
    ab_test(ctx, horizon, base, refined, workers)


if __name__ == "__main__":
    main()
