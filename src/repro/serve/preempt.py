"""Preemption and tier-renegotiation policies for the serving loop.

The admission controller alone can only accept, queue or reject: a gold
arrival into a saturated node waits behind *running* bronze sessions —
exactly the starvation mode a priority-aware manager exists to avoid.
This module adds the missing lever as a pluggable strategy the
:class:`~repro.serve.admission.AdmissionController` consults whenever
immediate admission fails:

* :class:`NoPreempt` — the baseline: never touch running sessions; the
  arrival queues or is rejected as before.
* :class:`EvictLowestTier` — *suspend* the cheapest strictly-lower-tier
  running session (lowest tier priority, least accumulated service on
  ties) and admit the blocked arrival into the freed slot.  The victim
  re-enters the waiting room with its remaining duration and resumes
  when capacity frees up; if it never does, it ends in the ``evicted``
  terminal state.
* :class:`RenegotiateTier` — demote the same victim's SLA tier to the
  ladder floor (the controller's lowest tier, whatever the ladder)
  instead of evicting it, and admit the arrival by
  *overcommitting* the node one slot past its admission capacity.  The
  victim keeps running — squeezed by the extra contention and stripped
  of its tier guarantee — so there is no eviction collateral, at the
  price of lower potentials for everyone while overcommitted.

Policies never preempt on behalf of an equal-or-lower-tier arrival
(no gold-vs-gold self-preemption) and are deterministic in (arrival
tier, live-session views).  The serving loop executes the returned
:class:`PreemptionDecision` and accounts evictions, demotions and
resumptions in the :class:`~repro.serve.report.ServeReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..utils import lookup

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .admission import AdmissionController

__all__ = [
    "EVICT",
    "DEMOTE",
    "LiveView",
    "PreemptionDecision",
    "PreemptionPolicy",
    "NoPreempt",
    "EvictLowestTier",
    "RenegotiateTier",
    "PREEMPTION_POLICIES",
    "build_preemption_policy",
]

#: Preemption actions a policy may decide on.
EVICT = "evict"
DEMOTE = "demote"


@dataclass(frozen=True)
class LiveView:
    """Controller-side snapshot of one running session at an arrival.

    ``name`` is the pool model name the session occupies (the node-local
    resource eviction frees); ``priority`` is its *current* tier's
    resolved priority weight, so mid-session tier shifts and earlier
    demotions are visible to the victim selection.  ``served_s`` is the
    session's accumulated service time across suspensions — the
    investment the tie-break protects (``admitted_s`` is the latest
    admission instant, which resets on resumption and would re-target
    previously evicted sessions).
    """

    name: str
    session_id: int
    tier: str
    priority: float
    admitted_s: float
    served_s: float = 0.0


@dataclass(frozen=True)
class PreemptionDecision:
    """A policy's answer: what to do to which running session.

    ``action`` is :data:`EVICT` (suspend the victim, admit into its
    slot) or :data:`DEMOTE` (drop the victim's tier to ``demote_to``
    and admit the arrival by overcommitting).  ``victim`` names the
    victim's pool model slot.
    """

    action: str
    victim: str
    demote_to: str | None = None


def _lowest_victim(live: Sequence[LiveView],
                   below_priority: float,
                   above_priority: float = 0.0) -> LiveView | None:
    """The cheapest preemptable session, deterministically.

    Candidates rank strictly below ``below_priority`` (an arrival never
    preempts its own tier or better) and strictly above
    ``above_priority`` (renegotiation cannot demote a session already at
    the floor).  Among candidates the lowest priority loses; ties break
    to the session with the least accumulated service (cheapest to
    throw away — and immune to resumption resetting admission times),
    then the highest session id.
    """
    candidates = [v for v in live
                  if above_priority < v.priority < below_priority]
    if not candidates:
        return None
    return min(candidates,
               key=lambda v: (v.priority, v.served_s, -v.session_id))


class PreemptionPolicy:
    """Strategy interface: may a blocked arrival displace a resident?

    ``consider`` sees the arrival's tier name, the views of every
    running session and the controller (for tier-ladder resolution) and
    returns a :class:`PreemptionDecision` or ``None`` (no preemption —
    the admission verdict falls through to queue/reject).
    ``max_overcommit`` is how many slots past the admission capacity
    the policy's decisions may push the node (only demotions do).
    """

    name: str = "preemption"
    max_overcommit: int = 0

    def consider(self, tier_name: str, live: Sequence[LiveView],
                 controller: "AdmissionController",
                 ) -> PreemptionDecision | None:
        """Return the preemption to perform for this arrival, if any."""
        raise NotImplementedError  # pragma: no cover


class NoPreempt(PreemptionPolicy):
    """The baseline: running sessions are untouchable."""

    name = "none"

    def consider(self, tier_name, live, controller):
        """Never preempt; the arrival queues or is rejected as before."""
        return None


class EvictLowestTier(PreemptionPolicy):
    """Suspend the cheapest strictly-lower-tier session for the arrival.

    The victim is the running session with the lowest current tier
    priority (least accumulated service on ties); it is only chosen when
    its priority is *strictly* below the arrival's, so equal tiers never
    preempt each other.  The serving loop re-queues the victim with its
    remaining duration — a later drain resumes it, otherwise it ends
    ``evicted``.
    """

    name = "evict_lowest_tier"

    def consider(self, tier_name, live, controller):
        """Pick the lowest-tier victim strictly below the arrival."""
        arrival = controller.tier(tier_name)
        victim = _lowest_victim(live, below_priority=arrival.priority)
        if victim is None:
            return None
        return PreemptionDecision(action=EVICT, victim=victim.name)


class RenegotiateTier(PreemptionPolicy):
    """Demote the victim's tier instead of evicting it.

    The victim selection matches :class:`EvictLowestTier`, but a victim
    already at the ladder floor (the controller's lowest tier, whatever
    the ladder) is not demotable — the arrival then falls through to
    queue/reject, so an all-bronze node renegotiates nothing.  Demotion
    voids the victim's old contract entirely: a pending mid-session tier
    shift is cancelled with it — the session stays at the floor instead
    of silently re-promoting later.  The arrival is admitted by
    overcommitting the node up to ``max_overcommit`` slots past its
    admission capacity
    (the contention solver handles the extra co-runner; everyone's
    potential drops while overcommitted, which is the policy's price).
    """

    name = "renegotiate"
    max_overcommit = 1

    def consider(self, tier_name, live, controller):
        """Pick a victim demotable to the floor, strictly below the
        arrival's tier; ``None`` when everyone is already at the floor."""
        arrival = controller.tier(tier_name)
        floor = controller.floor_tier()
        victim = _lowest_victim(live, below_priority=arrival.priority,
                                above_priority=floor.priority)
        if victim is None:
            return None
        return PreemptionDecision(action=DEMOTE, victim=victim.name,
                                  demote_to=floor.name)


#: Roster of preemption-policy factories, keyed for scenario specs and
#: :class:`~repro.serve.admission.AdmissionConfig.preemption`.
PREEMPTION_POLICIES = {
    "none": NoPreempt,
    "evict_lowest_tier": EvictLowestTier,
    "renegotiate": RenegotiateTier,
}


def build_preemption_policy(key: str) -> PreemptionPolicy:
    """Build a fresh preemption policy from its roster key.

    Scenario specs store the key (like the replan and routing rosters);
    an unknown key raises with the known choices listed.
    """
    return lookup(PREEMPTION_POLICIES, key, "preemption policy")()
