"""Session-routing policies for the fleet dispatcher.

A routing policy answers one question: *which node should this arriving
session land on?*  It sees only the dispatcher-side view of the fleet —
per-node capacity, a relative steady-state speed weight, and the
dispatcher's estimate of how many sessions are currently live on each
node — never the nodes' internal serving state (which does not exist yet
at routing time; nodes are served after the dispatch plan is fixed, see
:mod:`repro.serve.fleet.dispatch`).

Policies in the roster:

* :class:`RoundRobinRouter` — cycle through the alive nodes in index
  order, ignoring load and speed.  The baseline every smarter policy is
  compared against.
* :class:`LeastLoadedRouter` — pick the node with the largest
  steady-state throughput headroom, ``(capacity - est_live) * speed``:
  free slots weighted by how fast the node drains them.
* :class:`TierAffinityRouter` — reserve the fastest nodes for gold
  sessions; lower tiers fill the remaining nodes first and spill onto a
  reserved node only when every unreserved node is saturated.
* :class:`PreemptAwareTierRouter` — tier affinity for fleets whose nodes
  run a :mod:`repro.serve.preempt` policy: prefer any node that can
  admit the session *without* an eviction (a free estimated slot),
  partition-preferred first, and fall back to plain tier affinity only
  when the whole fleet looks saturated — preemption then happens where
  the tier partition wants it.
* :class:`LeastJoulesRouter` — energy-aware: among nodes with a free
  estimated slot, minimise the marginal joules per delivered inference
  (the power governor's per-node pricing), tie-breaking on headroom and
  falling back to the drain score when the whole fleet is saturated.
* :class:`PressureFeedbackRouter` — least-loaded, corrected by the
  *realized* per-node pressure of a previous serving round
  (:class:`NodePressure`): residual queue depth inflates a node's
  estimated load and its denial rate discounts its speed, so the nodes
  that actually queued, abandoned or rejected traffic last round attract
  less of it this round.  Pressure arrives through the
  :meth:`RoutingPolicy.observe_pressure` hook — fed by
  ``plan_dispatch(..., pressure=...)`` / ``serve_fleet`` feedback rounds
  — and with no pressure observed the policy is exactly
  :class:`LeastLoadedRouter`.

All policies are deterministic: ties break on the lowest node index, and
the only state any of them carries is the round-robin cursor and the
last observed pressure map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ...obs import NULL_RECORDER, Recorder
from ...obs.registry import ROUTING_CHOICE
from ...utils import lookup
from ..report import ServeReport

__all__ = [
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
]


@dataclass(frozen=True)
class NodeView:
    """Dispatcher-side snapshot of one alive node at a routing instant.

    ``est_live`` is the dispatcher's estimate of concurrently live
    sessions — arrivals routed to the node whose sampled duration has not
    elapsed yet.  It ignores the node's own queueing and rejection, which
    happen later, inside the node's serving loop.
    """

    index: int                 # position in the fleet's node list
    name: str
    capacity: int              # the node's admission capacity
    speed: float               # relative steady-state throughput weight
    est_live: int              # dispatcher-estimated live sessions
    #: Estimated extra board draw of landing one more session here (W).
    #: Priced by the dispatch power governor at the node's current DVFS
    #: state; 0.0 on power-blind dispatches, which makes every
    #: energy-aware comparison degenerate to pure headroom.
    marginal_watts: float = 0.0

    @property
    def free_slots(self) -> int:
        """Estimated unoccupied admission slots (may go negative)."""
        return self.capacity - self.est_live

    @property
    def headroom(self) -> float:
        """Steady-state throughput headroom: free slots x node speed."""
        return self.free_slots * self.speed


@dataclass(frozen=True)
class NodePressure:
    """Realized serving pressure of one node over a previous round.

    The dispatcher's phase-1 ``est_live`` view cannot see node-internal
    queueing or admission denial; this record carries exactly that,
    measured *after* a node served its slice: the sessions still waiting
    when the horizon closed and the fraction of observed arrivals the
    node abandoned (queue timeout) or rejected (admission control).
    """

    queue_depth: int = 0
    abandonment_rate: float = 0.0
    rejection_rate: float = 0.0

    @property
    def denial_rate(self) -> float:
        """Total turned-away fraction, clamped to [0, 1]."""
        return min(1.0, max(0.0, self.abandonment_rate
                            + self.rejection_rate))


def pressure_from_report(report: ServeReport) -> NodePressure:
    """Measure a node's :class:`NodePressure` from its serving report.

    Rates are over the arrivals the node actually observed within the
    horizon (out-of-horizon requests never reached the queue); a node
    that observed nothing reports zero pressure.
    """
    observed = report.arrivals - report.out_of_horizon
    if observed <= 0:
        return NodePressure(queue_depth=report.queued_at_horizon)
    return NodePressure(
        queue_depth=report.queued_at_horizon,
        abandonment_rate=report.abandoned / observed,
        rejection_rate=report.rejected / observed,
    )


def fleet_pressure(specs: Sequence, reports: Sequence[ServeReport]
                   ) -> dict[str, "NodePressure"]:
    """Per-node pressure map of one served round, keyed by node name.

    ``specs`` is the fleet's node-spec sequence (anything with a
    ``name``), aligned with ``reports`` — the shape both
    :func:`~repro.serve.fleet.serve_fleet` feedback rounds and the
    scenario runner's pool path produce.
    """
    if len(specs) != len(reports):
        raise ValueError(
            f"{len(specs)} node specs but {len(reports)} reports")
    return {spec.name: pressure_from_report(report)
            for spec, report in zip(specs, reports)}


class RoutingPolicy:
    """Strategy interface: pick a node for each arriving session.

    ``choose`` receives the request's SLA tier and the views of every
    *alive* node (dead nodes are filtered out by the dispatcher) and
    returns the chosen node's ``index``.  Implementations must be
    deterministic in (their own state, the arguments).
    """

    name: str = "routing"

    def observe_pressure(self,
                         pressure: Mapping[str, NodePressure]) -> None:
        """Feed realized per-node pressure from a previous round.

        A no-op for pressure-blind policies; feedback-aware ones
        (:class:`PressureFeedbackRouter`) fold it into later choices.
        The dispatcher calls this once, before routing starts.
        """

    def choose(self, tier: str, nodes: Sequence[NodeView]) -> int:
        """Return the ``index`` of the node the session is routed to."""
        raise NotImplementedError  # pragma: no cover

    def choose_observed(self, tier: str, nodes: Sequence[NodeView],
                        recorder: Recorder = NULL_RECORDER) -> int:
        """:meth:`choose`, with the pick counted on ``recorder``.

        The telemetry entry point the dispatcher calls: one
        :data:`~repro.obs.registry.ROUTING_CHOICE` counter tick per
        routed session, labelled ``"<policy>/<node>"``.  The choice is
        exactly ``choose``'s — recording never changes a route.
        """
        index = self.choose(tier, nodes)
        if recorder.enabled:
            chosen = next(v for v in nodes if v.index == index)
            recorder.count(ROUTING_CHOICE,
                           label=f"{self.name}/{chosen.name}")
        return index


def _drain_score(view: NodeView) -> float:
    """Routing desirability of a node, saturation-aware.

    With free capacity the score is the throughput headroom (free slots x
    speed).  At or over capacity it switches to the negated drain time of
    the backlog (``free_slots / speed``, a non-positive number): a fast
    node two sessions over capacity clears its excess sooner than a slow
    node one over, so multiplying the deficit by speed — which would
    punish exactly the nodes that recover fastest — is wrong there.
    """
    if view.free_slots > 0:
        return view.headroom
    return view.free_slots / view.speed


def _most_headroom(nodes: Sequence[NodeView]) -> int:
    """Index of the node with the best :func:`_drain_score` (lowest index
    wins ties)."""
    best = nodes[0]
    for view in nodes[1:]:
        if _drain_score(view) > _drain_score(best):
            best = view
    return best.index


class RoundRobinRouter(RoutingPolicy):
    """Cycle through the alive nodes in index order, blind to load.

    The cursor advances on every routed session, so a fleet with a dead
    node keeps rotating evenly over the survivors.  This is the
    dispatcher-less baseline: what static sharding of the trace
    (:func:`repro.workloads.split_session_requests`) approximates offline.
    """

    name = "round_robin"

    def __init__(self):
        self._cursor = 0

    def choose(self, tier: str, nodes: Sequence[NodeView]) -> int:
        """Pick the next node in rotation among the alive views."""
        view = nodes[self._cursor % len(nodes)]
        self._cursor += 1
        return view.index


class LeastLoadedRouter(RoutingPolicy):
    """Route to the node with the most steady-state throughput headroom.

    Headroom is ``(capacity - est_live) * speed``: a fast node with one
    free slot can beat a slow node with two, which is exactly the
    heterogeneity the per-node contention solver models.  When every node
    is saturated the comparison flips to backlog drain time
    (``deficit / speed``), so arrivals keep landing where the queue
    clears fastest instead of on the slowest overloaded node.
    """

    name = "least_loaded"

    def choose(self, tier: str, nodes: Sequence[NodeView]) -> int:
        """Pick the alive node with the best saturation-aware headroom."""
        return _most_headroom(nodes)


#: Share of the alive fleet, fastest first, that tier affinity reserves
#: for gold sessions.
_RESERVE_FRACTION = 1 / 3


class TierAffinityRouter(RoutingPolicy):
    """Reserve the fastest nodes for gold sessions.

    The fastest third of the alive fleet (at least one node) is the
    *gold partition*.  Gold sessions go to the reserved node
    with the most headroom; other tiers fill the unreserved nodes and
    spill onto a reserved node only when no unreserved node has a free
    slot — so a gold burst never queues behind bronze traffic, at the
    price of idling fast nodes under bronze-heavy load.
    """

    name = "tier_affinity"

    def _reserved(self, nodes: Sequence[NodeView]) -> set[int]:
        count = max(1, round(len(nodes) * _RESERVE_FRACTION))
        count = min(count, len(nodes))
        fastest = sorted(nodes, key=lambda v: (-v.speed, v.index))
        return {view.index for view in fastest[:count]}

    def _partition(self, tier: str, nodes: Sequence[NodeView],
                   ) -> tuple[list[NodeView], list[NodeView]]:
        """Split the alive views into the session's preferred partition
        (reserved nodes for gold, unreserved for the rest) and the
        remainder — the one partition rule both affinity routers share."""
        reserved = self._reserved(nodes)
        preferred = [v for v in nodes if (v.index in reserved)
                     == (tier == "gold")]
        fallback = [v for v in nodes if v not in preferred]
        return preferred, fallback

    def choose(self, tier: str, nodes: Sequence[NodeView]) -> int:
        """Route gold to the reserved partition, other tiers around it."""
        preferred, fallback = self._partition(tier, nodes)
        if tier == "gold":
            # Gold only leaves the reserved partition when it is gone
            # entirely (every reserved node dead): prefer always.
            return _most_headroom(preferred or fallback)
        if not preferred:
            return _most_headroom(fallback)
        if all(v.free_slots <= 0 for v in preferred) \
                and any(v.free_slots > 0 for v in fallback):
            return _most_headroom(fallback)
        return _most_headroom(preferred)


class PreemptAwareTierRouter(TierAffinityRouter):
    """Tier affinity that avoids triggering node-side preemptions.

    On a preemption-enabled fleet, landing a gold session on a full
    reserved node evicts (or demotes) a resident — collateral the
    dispatcher can often avoid when *some* node still has a free slot.
    This router therefore prefers admission-without-eviction: among the
    session's preferred tier partition first, then the rest of the
    fleet, pick the best-headroom node with a free estimated slot.  Only
    when every alive node looks saturated does it fall back to the plain
    tier-affinity choice, concentrating the unavoidable preemptions
    where the partition wants the session anyway.

    The dispatcher's ``est_live`` view still ignores node-internal
    queueing/eviction state (phase 1 cannot observe it), so "free slot"
    is the same estimate every other policy routes on.
    """

    name = "tier_affinity_preempt"

    def choose(self, tier: str, nodes: Sequence[NodeView]) -> int:
        """Prefer eviction-free admission; else plain tier affinity."""
        preferred, fallback = self._partition(tier, nodes)
        for group in (preferred, fallback):
            with_free = [v for v in group if v.free_slots > 0]
            if with_free:
                return _most_headroom(with_free)
        return super().choose(tier, nodes)


class LeastJoulesRouter(RoutingPolicy):
    """Route to the node serving the session at the fewest joules.

    Among nodes with a free estimated slot the router minimises
    ``marginal_watts / speed`` — the extra board draw of taking the
    session divided by the node's delivery rate, i.e. estimated joules
    per delivered inference.  ``marginal_watts`` is priced by the
    dispatch power governor at each node's *current* DVFS state, so a
    throttled node is charged its cheaper-but-slower operating point.
    SLA headroom stays in charge on two edges: ties (including every
    power-blind dispatch, where marginal watts are all 0.0) break on
    the saturation-aware drain score then the lowest index, and a fleet
    with no free slot anywhere falls back to the drain-score pick — an
    overloaded fleet drains its backlog where it clears fastest rather
    than where watts are cheapest.
    """

    name = "least_joules"

    def choose(self, tier: str, nodes: Sequence[NodeView]) -> int:
        """Cheapest joules per inference among free nodes; drain score
        under fleet-wide saturation."""
        with_free = [v for v in nodes if v.free_slots > 0]
        if not with_free:
            return _most_headroom(nodes)
        best = min(with_free,
                   key=lambda v: (v.marginal_watts / v.speed,
                                  -_drain_score(v), v.index))
        return best.index


class PressureFeedbackRouter(LeastLoadedRouter):
    """Least-loaded routing corrected by realized node pressure.

    Before scoring, each node's view is adjusted by the last observed
    :class:`NodePressure`: the residual queue depth is added to
    ``est_live`` (sessions the dispatcher's estimate missed but that
    will contend for the same slots) and the denial rate discounts the
    node's speed (a node that turned away 30 % of its arrivals is not
    delivering its nominal throughput).  The speed discount is capped at
    95 % so a fully-denying node stays orderable instead of dividing by
    zero in the drain-time comparison.

    With no pressure observed — the first feedback round, or plain
    one-shot dispatch — every adjustment is the identity and the policy
    reproduces :class:`LeastLoadedRouter` choice for choice, which is
    what pins ``feedback_rounds=0`` to today's behaviour.
    """

    name = "pressure_feedback"

    #: Cap on the denial-rate speed discount; keeps adjusted speed > 0.
    MAX_SPEED_DISCOUNT = 0.95

    def __init__(self):
        self._pressure: dict[str, NodePressure] = {}

    def observe_pressure(self,
                         pressure: Mapping[str, NodePressure]) -> None:
        """Replace the pressure map used to adjust later choices."""
        self._pressure = dict(pressure)

    def _adjusted(self, view: NodeView) -> NodeView:
        """``view`` with the node's observed pressure folded in."""
        pressure = self._pressure.get(view.name)
        if pressure is None:
            return view
        discount = min(self.MAX_SPEED_DISCOUNT, pressure.denial_rate)
        return NodeView(index=view.index, name=view.name,
                        capacity=view.capacity,
                        speed=view.speed * (1.0 - discount),
                        est_live=view.est_live + pressure.queue_depth,
                        marginal_watts=view.marginal_watts)

    def choose(self, tier: str, nodes: Sequence[NodeView]) -> int:
        """Best saturation-aware headroom over pressure-adjusted views."""
        return _most_headroom([self._adjusted(v) for v in nodes])


#: Roster of routing-policy factories, keyed for fleet scenario specs.
ROUTING_POLICIES = {
    "round_robin": RoundRobinRouter,
    "least_loaded": LeastLoadedRouter,
    "least_joules": LeastJoulesRouter,
    "tier_affinity": TierAffinityRouter,
    "tier_affinity_preempt": PreemptAwareTierRouter,
    "pressure_feedback": PressureFeedbackRouter,
}


def build_routing_policy(key: str) -> RoutingPolicy:
    """Build a fresh routing policy from its roster key.

    Policies may carry state (the round-robin cursor), so every dispatch
    must start from a fresh instance — which is why scenario specs store
    the key, not the object.
    """
    return lookup(ROUTING_POLICIES, key, "routing policy")()
