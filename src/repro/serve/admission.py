"""SLA-tier-aware admission control.

The blind ``TraceConfig.max_concurrent`` cap drops every arrival beyond
the multi-tenancy level, regardless of who is asking.  The serving loop
replaces it with an :class:`AdmissionController` that knows the SLA tier
ladder: a request that cannot be placed immediately is *queued* when its
tier ranks high enough and the waiting room has space, and only otherwise
rejected.  Queued requests abandon after ``max_queue_wait_s`` and are
drained highest-tier-first whenever capacity frees up.

A configured :mod:`~repro.serve.preempt` policy adds a fourth verdict:
:data:`PREEMPT` — the arrival displaces a running lower-tier session
(eviction or tier demotion) instead of waiting behind it.  The controller
only *decides*; the serving loop executes the preemption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..obs import NULL_RECORDER, Recorder
from ..obs.registry import ADMISSION_VERDICT, PREEMPT_PLAN
from ..workloads.sla import SLA_TIERS, SlaClass
from .preempt import (
    EVICT,
    PREEMPTION_POLICIES,
    LiveView,
    PreemptionDecision,
    build_preemption_policy,
)

__all__ = ["AdmissionConfig", "AdmissionController",
           "ADMIT", "QUEUE", "REJECT", "PREEMPT"]

ADMIT = "admit"
QUEUE = "queue"
REJECT = "reject"
PREEMPT = "preempt"


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control knobs of one serving node.

    ``capacity`` is the multi-tenancy level (the paper evaluates up to 5
    concurrent DNNs).  ``min_queue_priority`` draws the line between tiers
    that may wait for a slot and tiers that are turned away outright when
    the node is saturated — with the default ladder, gold and silver
    queue, bronze is rejected.  ``preemption`` keys the
    :data:`~repro.serve.preempt.PREEMPTION_POLICIES` roster; the default
    ``"none"`` keeps the accept/queue/reject ladder untouched.
    """

    capacity: int = 4
    queue_limit: int = 8
    max_queue_wait_s: float = 180.0
    min_queue_priority: float = 0.15
    preemption: str = "none"

    def __post_init__(self):
        if isinstance(self.capacity, bool) \
                or not isinstance(self.capacity, int) or self.capacity < 1:
            raise ValueError(
                f"capacity must be an int >= 1, got {self.capacity!r}")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        if self.max_queue_wait_s <= 0:
            raise ValueError("max_queue_wait_s must be positive")
        if self.preemption not in PREEMPTION_POLICIES:
            raise ValueError(
                f"unknown preemption policy {self.preemption!r}; "
                f"choose from {sorted(PREEMPTION_POLICIES)}")


class AdmissionController:
    """Accept / preempt / queue / reject decisions over the tier ladder.

    ``recorder`` (default: the no-op :data:`~repro.obs.NULL_RECORDER`)
    receives one :data:`~repro.obs.registry.ADMISSION_VERDICT` counter
    tick per decision, labelled ``"<tier>/<verdict>"`` — the per-tier
    admission funnel.  Ticks batch locally and reach the recorder on
    :meth:`flush_verdicts` (the serving loop flushes at end of run).
    Recording never changes a verdict.
    """

    def __init__(self, config: AdmissionConfig | None = None,
                 tiers: tuple[SlaClass, ...] = SLA_TIERS,
                 recorder: Recorder = NULL_RECORDER):
        self.config = config if config is not None else AdmissionConfig()
        self.preemption = build_preemption_policy(self.config.preemption)
        self.recorder = recorder
        self._tiers = {t.name: t for t in tiers}
        # Batched admission-funnel ticks keyed ``(tier, verdict)`` and
        # preemption-plan ticks keyed by action.  decide_with_plan runs
        # once per arrival, so both counters accumulate locally and land
        # on the recorder in one :meth:`flush_verdicts` call — same
        # totals, a dict add per event instead of a labelled recorder
        # call.
        self._verdict_acc: dict[tuple[str, str], float] = {}
        self._plan_acc: dict[str, float] = {}

    def tier(self, name: str) -> SlaClass:
        """Resolve a tier name to its :class:`SlaClass` (or raise)."""
        try:
            return self._tiers[name]
        except KeyError:
            raise ValueError(
                f"unknown SLA tier {name!r}; "
                f"choose from {sorted(self._tiers)}") from None

    def can_admit(self, active_count: int, can_place: bool) -> bool:
        """The immediate-admission fast path: a free capacity slot and a
        free pool model name.  Exposed so the serving loop can skip
        building preemption views for arrivals that admit outright."""
        return can_place and active_count < self.config.capacity

    def floor_tier(self) -> SlaClass:
        """The ladder's lowest-priority tier — the demotion floor.

        Derived from whatever ladder this controller was built with, so
        renegotiation works on custom tier sets, not just the default
        gold/silver/bronze one.
        """
        return min(self._tiers.values(), key=lambda t: t.priority)

    def decide_with_plan(self, tier_name: str, active_count: int,
                         queue_len: int, can_place: bool,
                         live: Sequence[LiveView] | None = None,
                         ) -> tuple[str, PreemptionDecision | None]:
        """One arrival's fate given the node's current occupancy: the
        verdict, with the concrete preemption to execute on
        :data:`PREEMPT` (None otherwise).

        ``can_place`` tells the controller whether a pool model name is
        free for immediate admission (the event engine identifies DNNs by
        name, so a saturated name pool blocks placement even below the
        capacity cap).  ``live`` — views of the running sessions — feeds
        the preemption policy; without it (or with the ``"none"``
        policy) the verdict degrades to the accept/queue/reject ladder.
        Returning the plan with the verdict makes the executed
        preemption exactly the decision that produced it — victim
        selection runs once per arrival, and a future stateful policy
        cannot diverge between deciding and executing.
        """
        tier = self.tier(tier_name)
        verdict: tuple[str, PreemptionDecision | None]
        if self.can_admit(active_count, can_place):
            verdict = (ADMIT, None)
        else:
            plan = (self.plan_preemption(tier_name, active_count,
                                         can_place, live)
                    if live is not None else None)
            if plan is not None:
                verdict = (PREEMPT, plan)
            elif queue_len < self.config.queue_limit \
                    and tier.priority >= self.config.min_queue_priority:
                verdict = (QUEUE, None)
            else:
                verdict = (REJECT, None)
        if self.recorder.enabled:
            pair = (tier_name, verdict[0])
            acc = self._verdict_acc
            try:
                acc[pair] += 1.0
            except KeyError:
                acc[pair] = 1.0
        return verdict

    def flush_verdicts(self) -> None:
        """Flush the batched funnel and preemption-plan ticks.

        The serving loop calls this once when the run finishes; anyone
        driving the controller directly with a recording recorder should
        flush before snapshotting.  Idempotent: flushed ticks are
        cleared.
        """
        for (tier_name, decision), value in self._verdict_acc.items():
            self.recorder.count(ADMISSION_VERDICT, value,
                                label=f"{tier_name}/{decision}")
        self._verdict_acc.clear()
        for action, value in self._plan_acc.items():
            self.recorder.count(PREEMPT_PLAN, value, label=action)
        self._plan_acc.clear()

    def plan_preemption(self, tier_name: str, active_count: int,
                        can_place: bool, live: Sequence[LiveView],
                        ) -> PreemptionDecision | None:
        """The executable preemption for a blocked arrival, if any.

        Feasibility is checked here, on top of the policy's own victim
        selection: an eviction frees one slot *and* one pool name, so it
        only needs the post-eviction count to fit the capacity; a
        demotion frees nothing, so it needs a free pool name and
        overcommit headroom (``capacity + max_overcommit``).
        """
        decision = self.preemption.consider(tier_name, live, self)
        if self.recorder.enabled:
            # One PREEMPT_PLAN tick per consult, labelled by the planned
            # action, batched with the funnel (see flush_verdicts).
            label = decision.action if decision is not None else "none"
            acc = self._plan_acc
            try:
                acc[label] += 1.0
            except KeyError:
                acc[label] = 1.0
        if decision is None:
            return None
        if decision.action == EVICT:
            if active_count - 1 >= self.config.capacity:
                return None
            return decision
        if not can_place:
            return None
        if active_count >= self.config.capacity \
                + self.preemption.max_overcommit:
            return None
        return decision

    def queue_order_key(self, tier_name: str, enqueue_s: float,
                        session_id: int) -> tuple:
        """Drain order: highest tier first, FIFO within a tier."""
        return (-self.tier(tier_name).priority, enqueue_s, session_id)

    def queue_deadline(self, enqueue_s: float) -> float:
        """When a session enqueued at ``enqueue_s`` abandons the queue.

        The serving loop schedules an explicit timeout event at this
        instant (instead of lazily scanning the waiting room on whatever
        event happens next), so abandonments carry their true time even
        through quiet stretches of the trace.
        """
        return enqueue_s + self.config.max_queue_wait_s
