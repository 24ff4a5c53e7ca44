#!/usr/bin/env python
"""Estimator-backed serving: the paper's learned decision path, online.

Every other serving example drives the replan policies off the oracle
predictor — each candidate mapping costs a full on-board measurement
window (2 s modeled), which is what makes full replans open multi-second
re-mapping gaps.  This A/B runs the *same* sampled Poisson traces twice
through ``ExperimentContext.serve_sweep``:

* ``predictor="oracle"``    — candidates measured on the simulated board;
* ``predictor="estimator"`` — candidates scored by the trained multi-task
  estimator at the paper's 0.04 s/eval decision latency, loaded by every
  worker from one artifact the context trains exactly once
  (``ExperimentContext.estimator_artifact_path``).

The table compares modeled per-decision latency and the re-mapping gap
time it turns into; the estimator column should sit ~50x below the
oracle on full replans.  A final check re-runs the estimator sweep on one
worker and asserts the reports are bit-identical to the pooled run — the
learned path keeps the runner's determinism contract.

Usage:  python estimator_serve.py [horizon_s] [workers]
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import ExperimentContext
from repro.runner import ScenarioRunner, dynamic_sweep_scenarios

LIGHT_POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet",
              "resnet12", "mobilenet")
POLICIES = ("full", "warm")


def main() -> None:
    horizon = float(sys.argv[1]) if len(sys.argv) > 1 else 300.0
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else None

    # The tiny preset keeps the one-off training run to seconds; the
    # artifact persists under results_dir, so repeat runs skip it.
    ctx = ExperimentContext(
        preset="tiny",
        results_dir=Path(tempfile.gettempdir()) / "repro_estimator_demo")
    t0 = time.perf_counter()
    artifact_path = ctx.estimator_artifact_path()
    print(f"estimator artifact: {artifact_path} "
          f"(ready in {time.perf_counter() - t0:.1f} s; trained once, "
          f"fanned out by path)")

    rows = {}
    for predictor in ("oracle", "estimator"):
        t0 = time.perf_counter()
        results, summary = ctx.serve_sweep(
            policies=POLICIES, managers=("rankmap_d",), traces_per_cell=1,
            horizon_s=horizon, arrival_rate_per_s=1 / 30.0,
            mean_session_s=200.0, pool=LIGHT_POOL, max_workers=workers,
            predictor=predictor,
            estimator_path=(artifact_path if predictor == "estimator"
                            else None))
        wall = time.perf_counter() - t0
        print(f"[{predictor}] {len(results)} scenarios served in "
              f"{wall:.1f} s")
        for row in summary:
            rows[(predictor, row["policy"])] = row

    header = (f"{'policy':>6s} {'predictor':>10s} {'decision s':>11s} "
              f"{'gap s':>8s} {'violation':>10s} {'session rate':>13s}")
    print()
    print(header)
    print("-" * len(header))
    for policy in POLICIES:
        for predictor in ("oracle", "estimator"):
            row = rows[(predictor, policy)]
            print(f"{policy:>6s} {predictor:>10s} "
                  f"{row['mean_decision_seconds']:>11.3f} "
                  f"{row['mean_gap_seconds']:>8.1f} "
                  f"{row['mean_violation_fraction']:>10.1%} "
                  f"{row['mean_session_rate']:>13.2f}")
        oracle = rows[("oracle", policy)]["mean_decision_seconds"]
        learned = rows[("estimator", policy)]["mean_decision_seconds"]
        if learned > 0:
            print(f"{'':>6s} {'':>10s} {oracle / learned:>10.0f}x lower "
                  "modeled decision latency on the learned path")

    # Determinism: the estimator-backed sweep is bit-identical for any
    # worker count (workers rebuild the predictor from the artifact).
    specs = dynamic_sweep_scenarios(
        policies=POLICIES, managers=("rankmap_d",), traces_per_cell=1,
        seed=ctx.preset.seed, horizon_s=horizon,
        arrival_rate_per_s=1 / 30.0, mean_session_s=200.0, pool=LIGHT_POOL,
        search_iterations=ctx.preset.mcts_iterations,
        search_rollouts=ctx.preset.mcts_rollouts,
        predictor="estimator", estimator_path=str(artifact_path))
    serial = ScenarioRunner(max_workers=1).run_dynamic(specs)
    pooled = ScenarioRunner(max_workers=2).run_dynamic(specs)
    identical = [r.report for r in serial] == [r.report for r in pooled]
    print(f"\n1-vs-2-worker estimator reports bit-identical: {identical}")
    if not identical:
        raise SystemExit("determinism regression on the estimator path")


if __name__ == "__main__":
    main()
