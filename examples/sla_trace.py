#!/usr/bin/env python
"""Stochastic edge-data-center trace scored against SLA tiers.

The paper's introduction motivates RankMap with edge data centers where
users in different SLA groups submit DNN queries.  This example samples a
Poisson session trace, assigns gold/silver/bronze tiers, replays the trace
through RankMap_S and through the all-on-GPU baseline, and scores both
timelines against the tiers' minimum-potential guarantees.

RankMap_S plans here with the oracle predictor, which prices every
candidate at a full on-board measurement window — several minutes per
plan on this 600 s trace.  A deployed RankMap scores candidates with the
learned estimator and decides in about 30 s (Sec. V-D), so the replay
charges that latency instead, as ``edge_datacenter_sla.py`` does.
"""

import numpy as np

from repro.baselines import GpuBaseline
from repro.core import OraclePredictor, RankMap, RankMapConfig
from repro.hw import orange_pi_5
from repro.search import MCTSConfig
from repro.sim import MappingDecision, run_dynamic_scenario
from repro.workloads import (
    TraceConfig,
    assign_tiers,
    evaluate_sla,
    poisson_trace,
    trace_peak_concurrency,
)

LIGHT_POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet",
              "resnet12", "mobilenet")
#: Deployed RankMap decision latency with the learned estimator (Sec. V-D).
DEPLOYED_DECISION_S = 30.0


def replay(tag, manager, events, assignment, platform, horizon,
           decision_seconds=None) -> None:
    """Replay the trace; ``decision_seconds`` overrides the modeled
    latency of every decision when given."""
    def planner(workload, priorities):
        vector = np.array([assignment.tiers[m.name].priority
                           for m in workload])
        decision = manager.plan(workload, vector)
        if decision_seconds is None:
            return decision
        return MappingDecision(decision.mapping, decision_seconds)

    timeline = run_dynamic_scenario(events, planner, platform, horizon)
    report = evaluate_sla(timeline, assignment, settle_seconds=30.0)
    print(f"\n{tag}:")
    print(f"  SLA satisfied: {report.satisfied}")
    print(f"  time in violation: {report.violation_fraction:.1%} "
          f"of mapped DNN-time")
    for tier, mean_p in sorted(report.mean_potential_by_tier.items()):
        print(f"  mean P ({tier}): {mean_p:.2f}")


def main() -> None:
    platform = orange_pi_5()
    rng = np.random.default_rng(42)
    config = TraceConfig(horizon_s=600.0, arrival_rate_per_s=1 / 45,
                         mean_session_s=240.0, max_concurrent=4,
                         pool=LIGHT_POOL)
    events = poisson_trace(rng, config)
    models = {e.model.name: e.model for e in events if e.model is not None}
    print(f"trace: {len(events)} events, "
          f"{len(models)} distinct DNNs, "
          f"peak concurrency {trace_peak_concurrency(events)}")

    assignment = assign_tiers(list(models.values()))
    for name, tier in assignment.tiers.items():
        print(f"  {name:>14}: {tier.name} "
              f"(priority {tier.priority}, min P {tier.min_potential})")

    rankmap = RankMap(
        platform, OraclePredictor(platform),
        RankMapConfig(mode="static",
                      mcts=MCTSConfig(iterations=50, seed=7),
                      board_validation_top_k=4),
    )
    replay("RankMap_S", rankmap, events, assignment, platform,
           config.horizon_s, decision_seconds=DEPLOYED_DECISION_S)
    replay("all-on-GPU baseline", GpuBaseline(), events, assignment,
           platform, config.horizon_s)


if __name__ == "__main__":
    np.set_printoptions(precision=3, suppress=True)
    main()
