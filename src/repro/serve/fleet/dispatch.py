"""Cluster dispatcher: route one shared session trace across N nodes.

The fleet layer sits one level above :func:`repro.serve.serve_trace`.  A
single raw Poisson demand (the edge data center's aggregate traffic) is
*dispatched* — every session request is routed to exactly one node by a
pluggable :class:`~repro.serve.fleet.routing.RoutingPolicy` — and each
node then serves its slice with its own admission controller, replan
policy and evaluation cache, exactly as a standalone node would.

Two phases keep this deterministic and pool-friendly:

1. :func:`plan_dispatch` walks the arrival timeline once, maintaining a
   dispatcher-side estimate of per-node live sessions, and fixes the
   complete routing (including node-failure draining) *before any node
   runs*.  The result is a plain-data :class:`DispatchPlan`.
2. The per-node serving loops execute independently — inline via
   :func:`serve_fleet`, or fanned across a process pool via
   :meth:`repro.runner.ScenarioRunner.run_fleet` — and their
   :class:`~repro.serve.report.ServeReport` outputs roll up into a
   :class:`~repro.serve.fleet.report.FleetReport`.  One
   :class:`FleetRounds` runs the feedback rounds of both paths.

Node failure is modeled as a drain-and-re-dispatch: a node with
``NodeSpec.fail_at_s`` serves only up to the failure instant, and every
session the dispatcher estimates live there at that moment is re-routed
to a surviving node as a fresh request carrying the remaining duration
(and its current tier, if a mid-session shift already fired).  The
dispatcher's live-set estimate intentionally ignores node-side queueing
and rejection — the dispatcher cannot observe them before the nodes run —
so a re-dispatched session may appear in two node reports: truncated
(``serving``) on the failed node and completed on the survivor.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from ...hw.platform import Platform
from ...obs import NULL_RECORDER, Recorder
from ...obs.registry import (
    DISPATCH_LOST,
    DISPATCH_REDISPATCHED,
    DISPATCH_ROUTED,
    SPAN_DISPATCH,
)
from ...sim.cache import EvaluationCache
from ...workloads.traces import SessionRequest
from ...zoo.registry import get_model
from ..loop import ServeConfig, serve_trace
from ..replan import ReplanPolicy
from .power import FleetPowerConfig, FleetPowerReport, _PowerGovernor
from .report import FleetReport, build_fleet_report
from .routing import (
    NodePressure,
    NodeView,
    RoutingPolicy,
    build_routing_policy,
    fleet_pressure,
)

__all__ = [
    "NodeSpec",
    "FleetNode",
    "DispatchPlan",
    "FleetRounds",
    "node_speed",
    "plan_dispatch",
    "serve_fleet",
]

# Same-instant processing order: estimated departures free slots (and
# watts) first, a shifted power cap takes force before anything routes at
# that instant, and a node failing at t must not receive an arrival at t —
# so failures drain before arrivals route.  Departure and cap-shift events
# exist only on power-governed dispatches; the power-blind walk keeps
# exactly the failure-before-arrival order it always had.
_RANK_DEPARTURE = 0
_RANK_CAP_SHIFT = 1
_RANK_FAILURE = 2
_RANK_ARRIVAL = 3


@dataclass(frozen=True)
class NodeSpec:
    """Dispatcher-side description of one heterogeneous node.

    ``speed`` is the node's relative steady-state throughput weight (see
    :func:`node_speed`); ``capacity`` its admission multi-tenancy level.
    ``fail_at_s`` optionally marks the instant the node dies — it serves
    nothing beyond that point and its live sessions are re-dispatched.
    """

    name: str
    capacity: int
    speed: float = 1.0
    fail_at_s: float | None = None

    def __post_init__(self):
        if isinstance(self.capacity, bool) \
                or not isinstance(self.capacity, int) or self.capacity < 1:
            raise ValueError(
                f"capacity must be an int >= 1, got {self.capacity!r}")
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ValueError(
                f"speed must be positive and finite, got {self.speed!r}")
        if self.fail_at_s is not None and not self.fail_at_s > 0:
            raise ValueError(
                f"fail_at_s must be positive, got {self.fail_at_s!r}")


@dataclass(frozen=True)
class FleetNode:
    """One executable node: its dispatch spec plus the objects to run it.

    This is the serve-layer (inline) execution record used by
    :func:`serve_fleet`; the process-pool path builds the same pieces
    inside each worker from a :class:`~repro.runner.DynamicScenario`
    instead.  ``cache`` is the node's own :class:`EvaluationCache`
    snapshot — fleets deliberately do not share one, mirroring per-node
    cache state in a real cluster.
    """

    spec: NodeSpec
    platform: Platform
    policy: ReplanPolicy
    config: ServeConfig
    cache: EvaluationCache | None = None


@dataclass(frozen=True)
class DispatchPlan:
    """The fixed routing of one trace across the fleet.

    ``node_requests[i]`` is the slice of the demand routed to node ``i``
    (re-dispatched continuations included, with re-based arrival times);
    ``routed[i]`` its length.  ``lost`` holds sessions that could not be
    routed because no node was alive when they arrived, and
    ``out_of_horizon`` the demand arriving at or after ``horizon_s`` —
    never routed, but recorded so fleet accounting matches the
    single-node :data:`~repro.serve.report.OUT_OF_HORIZON` ledger.
    """

    node_requests: tuple[tuple[SessionRequest, ...], ...]
    routed: tuple[int, ...]
    re_dispatched: int
    lost: tuple[SessionRequest, ...]
    out_of_horizon: tuple[SessionRequest, ...] = ()
    #: Arrivals the power governor dropped to stay under the fleet cap
    #: (sheddable tiers only; empty on power-blind dispatches).
    shed: tuple[SessionRequest, ...] = ()
    #: The power-cap violation ledger of a power-governed dispatch;
    #: ``None`` when no :class:`FleetPowerConfig` was supplied.
    power: FleetPowerReport | None = None


class _NodeState:
    """Mutable dispatch-time accounting of one node."""

    __slots__ = ("spec", "index", "alive", "live", "assigned")

    def __init__(self, spec: NodeSpec, index: int):
        self.spec = spec
        self.index = index
        self.alive = True
        self.live: list[tuple[float, SessionRequest]] = []  # (est_depart, r)
        self.assigned: list[SessionRequest] = []

    def expire(self, t: float) -> None:
        self.live = [(end, r) for end, r in self.live if end > t]

    def view(self, speed_multiplier: float = 1.0,
             marginal_watts: float = 0.0) -> NodeView:
        return NodeView(index=self.index, name=self.spec.name,
                        capacity=self.spec.capacity,
                        speed=self.spec.speed * speed_multiplier,
                        est_live=len(self.live),
                        marginal_watts=marginal_watts)


def node_speed(platform: Platform, pool: tuple[str, ...]) -> float:
    """Relative steady-state speed of a node: mean ideal throughput.

    Averages :meth:`Platform.ideal_throughput` over the node's model pool
    — the rate the board would sustain serving each pool model alone with
    no contention.  Routing policies use it to weight free capacity, so
    only the *ratios* between nodes matter.
    """
    if not pool:
        raise ValueError("pool must not be empty")
    return float(np.mean([platform.ideal_throughput(get_model(name))
                          for name in pool]))


def _shift_forward(request: SessionRequest, now: float,
                   remaining: float) -> SessionRequest:
    """Rebase a live session as a fresh request arriving ``now``.

    The dispatcher approximates the session's admission time by its
    routed arrival time, so a pending mid-session tier shift keeps its
    remaining offset and an already-fired shift bakes the new tier in.
    """
    tier = request.tier
    shift = None
    if request.tier_shift is not None:
        offset, new_tier = request.tier_shift
        elapsed = now - request.arrival_s
        if offset <= elapsed:
            tier = new_tier
        elif offset - elapsed < remaining:
            shift = (offset - elapsed, new_tier)
    return SessionRequest(session_id=request.session_id, arrival_s=now,
                          duration_s=remaining, tier=tier, tier_shift=shift)


def plan_dispatch(requests: Iterable[SessionRequest],
                  nodes: list[NodeSpec] | tuple[NodeSpec, ...],
                  routing: RoutingPolicy | str,
                  horizon_s: float,
                  recorder: Recorder = NULL_RECORDER,
                  pressure: Mapping[str, NodePressure] | None = None,
                  power: FleetPowerConfig | None = None
                  ) -> DispatchPlan:
    """Fix the complete routing of ``requests`` across ``nodes``.

    Walks arrivals and node failures in one deterministic event order,
    asking ``routing`` (a policy object or roster key; keys build a fresh
    instance, which stateful policies require) to place each session on
    an alive node.  Failure events drain the dead node's estimated live
    set back through the router at the failure instant, oldest arrival
    first.  The plan is a pure function of ``(requests, node specs,
    routing key, horizon_s, pressure)``; any iterable of requests works
    (the dispatcher must see the whole demand to fix the routing, so it
    materialises the sorted arrival order here).

    ``pressure`` optionally feeds a previous round's realized per-node
    :class:`~repro.serve.fleet.routing.NodePressure` to the policy via
    :meth:`~repro.serve.fleet.routing.RoutingPolicy.observe_pressure`
    before any routing happens — pressure-blind policies ignore it.

    ``recorder`` (:mod:`repro.obs`) counts routed / re-dispatched / lost
    sessions, the per-node routing choices, and traces one dispatch span
    per routed arrival — as a pure side channel; the plan is
    bit-identical with recording on or off.

    ``power`` optionally attaches a
    :class:`~repro.serve.fleet.power.FleetPowerConfig`: the walk then
    also processes estimated-departure and cap-shift events, prices
    every node for the routing views (DVFS-scaled speed, marginal
    watts), renegotiates DVFS levels against the cap after each event,
    sheds sheddable-tier arrivals that cannot fit under the cap, and
    returns the full violation ledger on ``DispatchPlan.power``.  All of
    it happens here in phase 1, so the ledger — like the plan — is
    bit-identical for any worker count.  Without ``power`` the walk is
    byte-for-byte today's throughput-only dispatch.
    """
    if not nodes:
        raise ValueError("fleet must have at least one node")
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    policy = (build_routing_policy(routing) if isinstance(routing, str)
              else routing)
    if pressure is not None:
        policy.observe_pressure(pressure)
    states = [_NodeState(spec, i) for i, spec in enumerate(nodes)]
    governor = (None if power is None
                else _PowerGovernor(power, nodes, horizon_s, recorder))

    heap: list[tuple] = []
    seq = 0

    def push(time: float, rank: int, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, rank, seq, payload))
        seq += 1

    out_of_horizon: list[SessionRequest] = []
    for request in sorted(requests,
                          key=lambda r: (r.arrival_s, r.session_id)):
        if request.arrival_s < horizon_s:
            push(request.arrival_s, _RANK_ARRIVAL, request)
        else:
            out_of_horizon.append(request)
    for state in states:
        fail = state.spec.fail_at_s
        if fail is not None and fail < horizon_s:
            push(fail, _RANK_FAILURE, state.index)
    if governor is not None and power.cap_shift is not None:
        shift_at, new_cap = power.cap_shift
        if shift_at < horizon_s:
            push(shift_at, _RANK_CAP_SHIFT, new_cap)

    lost: list[SessionRequest] = []
    shed: list[SessionRequest] = []
    re_dispatched = 0

    recording = recorder.enabled

    def loads() -> list[tuple[bool, int]]:
        return [(s.alive, len(s.live)) for s in states]

    def expire_alive(t: float) -> None:
        for state in states:
            if state.alive:
                state.expire(t)

    def route(request: SessionRequest, t: float) -> None:
        alive = [s for s in states if s.alive]
        if not alive:
            lost.append(request)
            if recording:
                recorder.count(DISPATCH_LOST)
            return
        for state in alive:
            state.expire(t)
        if governor is None:
            views = [s.view() for s in alive]
        else:
            views = [s.view(governor.speed_multiplier(s.index),
                            governor.marginal_watts(s.index, len(s.live)))
                     for s in alive]
        index = policy.choose_observed(request.tier, views, recorder)
        target = states[index]
        if not target.alive:
            raise RuntimeError(
                f"routing policy {policy.name!r} chose dead node {index}")
        target.assigned.append(request)
        end = t + request.duration_s
        target.live.append((end, request))
        if governor is not None and end < horizon_s:
            push(end, _RANK_DEPARTURE, None)
        if recording:
            recorder.count(DISPATCH_ROUTED, label=target.spec.name)
            recorder.span(SPAN_DISPATCH, t, 0.0,
                          (("node", target.spec.name),
                           ("session", request.session_id),
                           ("tier", request.tier)))

    while heap:
        t, rank, _, payload = heapq.heappop(heap)
        if governor is not None:
            governor.advance(t)
        if rank == _RANK_DEPARTURE:
            # Power-governed walks tick at estimated departures so the
            # draw integral and DVFS levels track occupancy exactly.
            expire_alive(t)
            governor.update(t, loads())
            continue
        if rank == _RANK_CAP_SHIFT:
            governor.shift_cap(payload)
            expire_alive(t)
            governor.update(t, loads())
            continue
        if rank == _RANK_ARRIVAL:
            if governor is not None:
                expire_alive(t)
                if governor.should_shed(payload.tier, loads()):
                    shed.append(payload)
                    governor.record_shed(payload.tier)
                    continue
            route(payload, t)
            if governor is not None:
                governor.update(t, loads())
            continue
        # Node failure: drain the estimated live set onto the survivors.
        state = states[payload]
        state.alive = False
        state.expire(t)
        survivors = sorted(state.live,
                           key=lambda item: (item[1].arrival_s,
                                             item[1].session_id))
        state.live = []
        for est_depart, request in survivors:
            re_dispatched += 1
            if recording:
                recorder.count(DISPATCH_REDISPATCHED)
            route(_shift_forward(request, t, est_depart - t), t)
        if governor is not None:
            governor.update(t, loads())

    return DispatchPlan(
        node_requests=tuple(tuple(s.assigned) for s in states),
        routed=tuple(len(s.assigned) for s in states),
        re_dispatched=re_dispatched,
        lost=tuple(lost),
        out_of_horizon=tuple(out_of_horizon),
        shed=tuple(shed),
        power=None if governor is None else governor.finish(),
    )


class FleetRounds:
    """The dispatch-then-serve rounds of one fleet run.

    The one round loop of :func:`serve_fleet` and of
    :meth:`repro.runner.ScenarioRunner.run_fleet`, which steps several
    fleets' rounds in lockstep, one pool map per round.  Each round,
    :meth:`dispatch` routes the demand with a fresh policy fed the
    pressure the previous round measured; the caller serves node ``i``'s
    slice up to ``horizons[i]`` (cut at its failure) and passes the node
    reports to :meth:`finish`.  :meth:`report` rolls up the final round.
    """

    def __init__(self, requests: Iterable[SessionRequest],
                 specs: list[NodeSpec] | tuple[NodeSpec, ...],
                 platforms: list[str] | tuple[str, ...],
                 routing: RoutingPolicy | str, horizon_s: float,
                 feedback_rounds: int = 0,
                 power: FleetPowerConfig | None = None):
        if feedback_rounds < 0:
            raise ValueError(
                f"feedback_rounds must be >= 0, got {feedback_rounds}")
        if feedback_rounds and not isinstance(routing, str):
            raise ValueError(
                "feedback_rounds > 0 requires a routing roster key: every "
                "round must re-dispatch with a fresh policy instance")
        # Routing consumes the demand once per round.
        self.requests = tuple(requests)
        self.specs = tuple(specs)
        self.platforms = tuple(platforms)
        self.routing = routing
        self.horizon_s = horizon_s
        self.feedback_rounds = feedback_rounds
        self.power = power
        self.horizons = tuple(
            horizon_s if spec.fail_at_s is None
            else min(spec.fail_at_s, horizon_s) for spec in self.specs)
        self.round = 0
        self._pressure: dict[str, NodePressure] | None = None
        self._plan: DispatchPlan | None = None
        self._reports: list = []
        self._routing_name = ""

    @property
    def final(self) -> bool:
        """Whether the current round is the one the report is built from."""
        return self.round == self.feedback_rounds

    @property
    def done(self) -> bool:
        """Whether every round has been served."""
        return self.round > self.feedback_rounds

    def dispatch(self, recorder: Recorder = NULL_RECORDER) -> DispatchPlan:
        """Fix the current round's routing of the whole demand."""
        policy = (build_routing_policy(self.routing)
                  if isinstance(self.routing, str) else self.routing)
        self._routing_name = policy.name
        self._plan = plan_dispatch(self.requests, self.specs, policy,
                                   self.horizon_s, recorder=recorder,
                                   pressure=self._pressure, power=self.power)
        return self._plan

    def finish(self, reports) -> None:
        """Close the current round with its per-node serve reports."""
        if not self.final:
            self._pressure = fleet_pressure(self.specs, reports)
        self._reports = list(reports)
        self.round += 1

    def report(self) -> FleetReport:
        """The fleet report of the final round."""
        return build_fleet_report(self.horizon_s, self._routing_name,
                                  self.specs, self.platforms, self._plan,
                                  self._reports)


def serve_fleet(requests: Iterable[SessionRequest],
                nodes: list[FleetNode] | tuple[FleetNode, ...],
                routing: RoutingPolicy | str = "round_robin",
                horizon_s: float | None = None,
                recorder: Recorder = NULL_RECORDER,
                feedback_rounds: int = 0,
                power: FleetPowerConfig | None = None) -> FleetReport:
    """Dispatch ``requests`` across ``nodes`` and serve every slice inline.

    The single-process execution of the fleet's :class:`FleetRounds`:
    routing via :func:`plan_dispatch` (which materialises the demand —
    routing needs it all), then one :func:`repro.serve.serve_trace` call
    per node (a failed node serves up to ``fail_at_s`` only), rolled up
    into a :class:`FleetReport`.  ``horizon_s`` defaults to the largest
    node-config horizon.  :meth:`repro.runner.ScenarioRunner.run_fleet`
    produces bit-identical reports with the nodes fanned across a
    process pool.  ``recorder`` observes both the dispatch phase and
    every node's serving loop (one shared sink on this inline path; the
    pool path keeps per-node recorders and merges their snapshots).

    ``feedback_rounds=N`` iterates the whole dispatch-then-serve cycle
    ``N`` extra times: round ``k`` re-routes the *same* demand with the
    per-node :class:`~repro.serve.fleet.routing.NodePressure` measured
    from round ``k-1``'s node reports (queue depth, abandonment and
    rejection rates), and only the final round's report is returned.
    Each round starts from a fresh policy instance, so ``routing`` must
    be a roster key when ``feedback_rounds > 0``; with a pressure-blind
    policy the rounds converge trivially (every round routes
    identically).  Intermediate rounds are dispatcher deliberation, not
    served traffic: they record no telemetry and serve on deep copies of
    each node's replan policy, so the final round plans from the
    caller's policy state, as every pool round plans from the node spec.

    ``power`` makes the dispatch energy-budgeted (see
    :func:`plan_dispatch`): the final report then carries the power-cap
    violation ledger on ``FleetReport.power`` and counts shed arrivals.
    """
    if not nodes:
        raise ValueError("fleet must have at least one node")
    if horizon_s is None:
        horizon_s = max(node.config.horizon_s for node in nodes)
    rounds = FleetRounds(requests, [node.spec for node in nodes],
                         [node.platform.name for node in nodes], routing,
                         horizon_s, feedback_rounds, power)
    while not rounds.done:
        final = rounds.final
        round_recorder = recorder if final else NULL_RECORDER
        plan = rounds.dispatch(round_recorder)
        reports = []
        for node, horizon, slice_requests in zip(nodes, rounds.horizons,
                                                 plan.node_requests):
            # The evaluation cache never changes a report bit, so the
            # copies share it rather than copy it.
            policy = (node.policy if final else copy.deepcopy(
                node.policy, {id(node.cache): node.cache}))
            config = node.config
            if config.horizon_s != horizon:
                config = replace(config, horizon_s=horizon)
            reports.append(serve_trace(slice_requests, policy,
                                       node.platform, config,
                                       cache=node.cache,
                                       recorder=round_recorder))
        rounds.finish(reports)
    return rounds.report()
