"""Fleet-level outcome records: per-node rollups + cross-node metrics.

A :class:`FleetReport` aggregates the per-node
:class:`~repro.serve.report.ServeReport` outputs of one dispatched trace.
Like the node-level report it is plain data end to end — it crosses the
scenario-runner process boundary by pickling and the 1-vs-N-worker
determinism regression compares instances bit for bit — so no wall-clock
or process-local field lives here.

On top of the per-node sums it adds the cluster-scale views a single-node
report cannot express: Jain's fairness index across nodes
(speed-normalised, so heterogeneity itself does not read as unfairness)
and across sessions, a fleet starvation rate (admitted sessions that
never delivered an inference), and a per-tier outcome breakdown that
shows what the routing policy did to gold vs bronze traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..report import (
    ABANDONED,
    EVICTED,
    REJECTED,
    ServeReport,
    SessionOutcome,
    jain_index,
    tier_survival_rates,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .dispatch import DispatchPlan, NodeSpec
    from .power import FleetPowerReport

# jain_index moved to repro.serve.report (the node-level eviction-fairness
# metric needs it below the fleet layer) and stays re-exported here.
__all__ = ["NodeReport", "FleetReport", "jain_index", "build_fleet_report"]


@dataclass(frozen=True)
class NodeReport:
    """One node's slice of the fleet outcome.

    ``routed`` counts the sessions the dispatcher sent here (re-dispatched
    continuations included); ``report`` is the node's own serving report,
    truncated at ``failed_at_s`` when the node died mid-run.
    """

    name: str
    platform: str
    speed: float
    capacity: int
    routed: int
    report: ServeReport
    failed_at_s: float | None = None
    #: Estimated board energy over the horizon (watt-seconds); ``None``
    #: on power-blind dispatches.
    energy_ws: float | None = None
    #: This node's attributed share of the fleet's over-cap watt-seconds;
    #: ``None`` on power-blind dispatches.
    over_cap_ws: float | None = None

    @property
    def utilisation(self) -> float:
        """Admitted DNN-time as a fraction of capacity x served horizon."""
        horizon = self.report.horizon_s
        if horizon <= 0 or self.capacity <= 0:
            return 0.0
        return self.report.observed_seconds / (horizon * self.capacity)


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one dispatched trace across the whole fleet."""

    horizon_s: float
    routing: str                   # routing-policy roster key / name
    nodes: tuple[NodeReport, ...]
    re_dispatched: int = 0         # failure-drained session continuations
    lost: int = 0                  # arrivals with no alive node to take them
    out_of_horizon: int = 0        # demand arriving after the horizon
    shed: int = 0                  # arrivals dropped by the power governor
    #: Power-cap violation ledger of a power-governed dispatch
    #: (:class:`~repro.serve.fleet.power.FleetPowerReport`); ``None``
    #: when the fleet ran power-blind.
    power: "FleetPowerReport | None" = None

    # ------------------------------------------------------- admission
    def _sessions(self) -> list[SessionOutcome]:
        """Every per-node session record; a re-dispatched session
        contributes both of its legs (service-time sums want both)."""
        return [s for node in self.nodes for s in node.report.sessions]

    def _distinct_sessions(self) -> list[SessionOutcome]:
        """One record per session id, in id order.

        A session re-dispatched after a node failure appears in two node
        reports; for per-session counting its *continuation* record (the
        later arrival) wins — that is where its final fate is decided.
        """
        by_id: dict[int, SessionOutcome] = {}
        for s in self._sessions():
            kept = by_id.get(s.session_id)
            if kept is None or s.arrival_s > kept.arrival_s:
                by_id[s.session_id] = s
        return [by_id[sid] for sid in sorted(by_id)]

    @property
    def arrivals(self) -> int:
        """Distinct sessions offered to the fleet, matching the
        single-node ledger: lost, power-shed and out-of-horizon demand
        included."""
        return sum(n.routed for n in self.nodes) - self.re_dispatched \
            + self.lost + self.out_of_horizon + self.shed

    @property
    def admitted(self) -> int:
        """Session admissions across all nodes (re-dispatch may re-admit)."""
        return sum(n.report.admitted for n in self.nodes)

    @property
    def rejected(self) -> int:
        """Admission-controller rejections summed over the fleet."""
        return sum(n.report.rejected for n in self.nodes)

    @property
    def abandoned(self) -> int:
        """Queue-timeout abandonments summed over the fleet."""
        return sum(n.report.abandoned for n in self.nodes)

    @property
    def replans(self) -> int:
        """Replanning invocations summed over the fleet."""
        return sum(n.report.replans for n in self.nodes)

    # ------------------------------------------------------- preemption
    @property
    def evictions(self) -> int:
        """Preemption eviction events summed over the fleet."""
        return sum(n.report.evictions for n in self.nodes)

    @property
    def demotions(self) -> int:
        """Tier-renegotiation events summed over the fleet."""
        return sum(n.report.demotions for n in self.nodes)

    @property
    def resumptions(self) -> int:
        """Evicted-session resumptions summed over the fleet."""
        return sum(n.report.resumptions for n in self.nodes)

    @property
    def evicted_sessions(self) -> int:
        """Distinct sessions whose final fate was terminal eviction
        (the continuation record decides, like every distinct count)."""
        return sum(1 for s in self._distinct_sessions()
                   if s.outcome == EVICTED)

    @property
    def eviction_fairness(self) -> float:
        """Jain index of per-tier survival under preemption, fleet-wide.

        The cluster analogue of
        :attr:`repro.serve.ServeReport.eviction_fairness`, computed over
        distinct sessions: each tier with admitted sessions contributes
        the fraction that did not end terminally evicted.
        """
        return jain_index(tier_survival_rates(self._distinct_sessions()))

    @property
    def mean_queue_wait_s(self) -> float:
        """Mean queue wait of admitted sessions across the fleet."""
        waits = [s.queue_wait_s for s in self._sessions()
                 if s.admitted_s is not None]
        return sum(waits) / len(waits) if waits else 0.0

    # --------------------------------------------------------- service
    @property
    def delivered_inferences(self) -> float:
        """Total inferences delivered by every node."""
        return sum(s.delivered_inferences for s in self._sessions())

    @property
    def mean_session_rate(self) -> float:
        """Mean delivered rate over all served sessions, fleet-wide."""
        rates = [s.mean_rate for s in self._sessions()
                 if s.served_seconds > 0]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def sla_violation_fraction(self) -> float:
        """Fraction of fleet-wide admitted DNN-time below tier guarantees."""
        observed = sum(n.report.observed_seconds for n in self.nodes)
        if observed <= 0:
            return 0.0
        violation = sum(n.report.sla_violation_seconds for n in self.nodes)
        return violation / observed

    # -------------------------------------------------------- fairness
    @property
    def node_fairness(self) -> float:
        """Jain index of speed-normalised per-node session rates.

        Each node contributes its mean session rate divided by its speed
        weight, so a slow node serving proportionally slower does not
        count as unfair — only routing imbalance does.  Nodes that served
        nothing are excluded.
        """
        rates = [n.report.mean_session_rate / n.speed for n in self.nodes
                 if any(s.served_seconds > 0 for s in n.report.sessions)]
        return jain_index(rates)

    @property
    def session_fairness(self) -> float:
        """Jain index of per-session delivered rates across the fleet."""
        rates = [s.mean_rate for s in self._sessions()
                 if s.served_seconds > 0]
        return jain_index(rates)

    @property
    def starved_sessions(self) -> int:
        """Admitted sessions that never delivered a single inference
        (distinct per session id; the continuation record decides)."""
        return sum(1 for s in self._distinct_sessions()
                   if s.admitted_s is not None
                   and s.delivered_inferences <= 0.0)

    @property
    def starvation_rate(self) -> float:
        """Starved fraction of the fleet's distinct admitted sessions."""
        admitted = sum(1 for s in self._distinct_sessions()
                       if s.admitted_s is not None)
        return self.starved_sessions / admitted if admitted else 0.0

    # ------------------------------------------------------- per tier
    def tier_outcomes(self) -> dict[str, dict[str, float]]:
        """Per-SLA-tier rollup: arrivals, denials and mean delivered rate.

        Counts are per *distinct* session (a failure-re-dispatched
        session is its continuation's fate, not two arrivals), so per-tier
        arrivals sum to ``arrivals - lost - out_of_horizon - shed`` (shed
        sessions never reach a node and have no serving record).  ``denied``
        counts rejections plus queue abandonments — the demand the fleet
        turned away — which is where routing policies differ most visibly
        (tier affinity keeps gold denial low under load).
        """
        tiers: dict[str, dict[str, float]] = {}
        for s in self._distinct_sessions():
            row = tiers.setdefault(s.tier, {
                "arrivals": 0, "admitted": 0, "denied": 0,
                "mean_rate": 0.0, "_rates": 0})
            row["arrivals"] += 1
            if s.admitted_s is not None:
                row["admitted"] += 1
            if s.outcome in (REJECTED, ABANDONED):
                row["denied"] += 1
            if s.served_seconds > 0:
                row["mean_rate"] += s.mean_rate
                row["_rates"] += 1
        for row in tiers.values():
            count = row.pop("_rates")
            row["mean_rate"] = row["mean_rate"] / count if count else 0.0
        return tiers

    # --------------------------------------------------------- display
    def summary(self) -> str:
        """Human-readable multi-line digest (printed by the examples)."""
        lines = [
            f"FleetReport[{self.routing}] over {self.horizon_s:.0f} s, "
            f"{len(self.nodes)} nodes",
            f"  sessions: {self.arrivals} offered, {self.admitted} admitted, "
            f"{self.rejected} rejected, {self.abandoned} abandoned, "
            f"{self.re_dispatched} re-dispatched, {self.lost} lost"
            + (f", {self.shed} shed" if self.shed else "")
            + (f", {self.out_of_horizon} out of horizon"
               if self.out_of_horizon else ""),
            f"  service: {self.delivered_inferences:.0f} inferences, mean "
            f"session rate {self.mean_session_rate:.2f}/s, SLA violation "
            f"{self.sla_violation_fraction:.1%}",
            f"  fairness: node {self.node_fairness:.3f}, session "
            f"{self.session_fairness:.3f}; starved {self.starved_sessions} "
            f"({self.starvation_rate:.1%})",
        ]
        if self.evictions or self.demotions:
            lines.append(
                f"  preemption: {self.evictions} evictions "
                f"({self.resumptions} resumed, {self.evicted_sessions} "
                f"lost), {self.demotions} demotions; eviction fairness "
                f"{self.eviction_fairness:.3f}")
        if self.power is not None:
            lines.append(
                f"  power: mean {self.power.mean_watts:.2f} W, over cap "
                f"{self.power.fleet_over_cap_ws:.1f} Ws, "
                f"{len(self.power.dvfs_transitions)} DVFS transitions, "
                f"{self.shed} shed")
        for node in self.nodes:
            failed = (f", FAILED at {node.failed_at_s:.0f} s"
                      if node.failed_at_s is not None else "")
            energy = (f", {node.energy_ws:.0f} Ws"
                      if node.energy_ws is not None else "")
            lines.append(
                f"    {node.name} [{node.platform}, cap {node.capacity}, "
                f"speed {node.speed:.1f}]: {node.routed} routed, "
                f"{node.report.admitted} admitted, util "
                f"{node.utilisation:.1%}{energy}{failed}")
        return "\n".join(lines)


def build_fleet_report(horizon_s: float, routing: str,
                       specs: "Sequence[NodeSpec]",
                       platforms: Sequence[str],
                       plan: "DispatchPlan",
                       reports: Sequence[ServeReport]) -> FleetReport:
    """Assemble the :class:`FleetReport` from a dispatch plan's pieces
    (the final round of a :class:`~repro.serve.fleet.FleetRounds` run)."""
    ledger = plan.power
    nodes = tuple(
        NodeReport(name=spec.name, platform=platform, speed=spec.speed,
                   capacity=spec.capacity, routed=routed, report=report,
                   failed_at_s=spec.fail_at_s,
                   energy_ws=(None if ledger is None
                              else ledger.node_energy_ws[i]),
                   over_cap_ws=(None if ledger is None
                                else ledger.node_over_cap_ws[i]))
        for i, (spec, platform, routed, report)
        in enumerate(zip(specs, platforms, plan.routed, reports)))
    return FleetReport(horizon_s=horizon_s, routing=routing, nodes=nodes,
                       re_dispatched=plan.re_dispatched,
                       lost=len(plan.lost),
                       out_of_horizon=len(plan.out_of_horizon),
                       shed=len(plan.shed),
                       power=ledger)
