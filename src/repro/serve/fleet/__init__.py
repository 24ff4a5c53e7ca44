"""Multi-node fleet dispatcher: cluster-scale serving over RankMap nodes.

The paper plans one heterogeneous node at a time; its edge-data-center
framing implies a *fleet* of such nodes sharing traffic.  This package is
that cluster layer:

* :mod:`repro.serve.fleet.routing` — pluggable session-routing policies
  (round-robin, least-loaded by steady-state throughput headroom,
  tier-affinity reserving fast nodes for gold sessions, a
  preemption-aware tier-affinity variant preferring nodes that can
  admit without an eviction, and a pressure-feedback variant folding
  realized node pressure from a previous round into the headroom score).
* :mod:`repro.serve.fleet.dispatch` — the dispatcher: fixes a
  deterministic :class:`DispatchPlan` for a shared Poisson demand
  (including node-failure draining with session re-dispatch), then serves
  each node's slice through :func:`repro.serve.serve_trace` — once, or
  iteratively re-dispatching with measured pressure via
  ``serve_fleet(feedback_rounds=N)``.
* :mod:`repro.serve.fleet.report` — the :class:`FleetReport` rollup of
  per-node :class:`~repro.serve.ServeReport` outputs with cross-node
  fairness and starvation metrics.
* :mod:`repro.serve.fleet.power` — energy-budgeted dispatch: per-node
  DVFS ladders, a fleet-wide power cap with brownout shifts, the
  ``least_joules``-facing node pricing and the watt-second violation
  ledger (:class:`FleetPowerReport`) the reports carry.

``repro.runner.FleetScenario`` wraps a whole fleet study into a
declarative spec and :meth:`repro.runner.ScenarioRunner.run_fleet` fans
the nodes across the process pool with bit-identical reports for any
worker count.
"""

from .dispatch import (
    DispatchPlan,
    FleetNode,
    FleetRounds,
    NodeSpec,
    node_speed,
    plan_dispatch,
    serve_fleet,
)
from .power import FleetPowerConfig, FleetPowerReport, PowerSegment
from .report import FleetReport, NodeReport, build_fleet_report, jain_index
from .routing import (
    ROUTING_POLICIES,
    LeastJoulesRouter,
    LeastLoadedRouter,
    NodePressure,
    NodeView,
    PreemptAwareTierRouter,
    PressureFeedbackRouter,
    RoundRobinRouter,
    RoutingPolicy,
    TierAffinityRouter,
    build_routing_policy,
    fleet_pressure,
    pressure_from_report,
)

__all__ = [
    "NodeSpec",
    "FleetNode",
    "FleetRounds",
    "DispatchPlan",
    "node_speed",
    "plan_dispatch",
    "serve_fleet",
    "FleetReport",
    "NodeReport",
    "build_fleet_report",
    "jain_index",
    "NodeView",
    "NodePressure",
    "pressure_from_report",
    "fleet_pressure",
    "RoutingPolicy",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "LeastJoulesRouter",
    "TierAffinityRouter",
    "PreemptAwareTierRouter",
    "PressureFeedbackRouter",
    "ROUTING_POLICIES",
    "build_routing_policy",
    "FleetPowerConfig",
    "FleetPowerReport",
    "PowerSegment",
]
