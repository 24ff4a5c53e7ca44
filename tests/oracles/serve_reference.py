"""Reference serving loop: the pre-streaming architecture, bugs fixed.

:func:`serve_trace_reference` is the O(n²)-ish seed implementation of the
serving loop kept as an executable oracle: a fully materialised waiting
room that is re-sorted on every drain admission, per-resident python
accumulation in ``emit()``, and the whole trace in memory.  The only
behavioural change from the seed is the queue-timeout fix shared with the
streaming loop — explicit timeout events scheduled at
:meth:`~repro.serve.admission.AdmissionController.queue_deadline` instead
of the lazy ``purge_queue`` scan — so the two implementations define the
*same* semantics through entirely different data structures.

The property suite (``tests/property/test_serve_properties.py``) drives
randomized preemption/tier-shift/timeout traces through both loops and
asserts the :class:`~repro.serve.report.ServeReport` outputs are
bit-identical, single-node and through the fleet dispatch path.  Only
tests run it, so it lives under ``tests/oracles/`` and is imported as
``tests.oracles.serve_reference``.  Keep this module boring: when the streaming loop in :mod:`repro.serve.loop`
grows a feature, port the *semantics* here in the simplest possible
form, never the optimisation.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hw.platform import Platform
from repro.serve.admission import ADMIT, PREEMPT, QUEUE, AdmissionController
from repro.serve.loop import ServeConfig, _manager_name
from repro.serve.preempt import EVICT, LiveView
from repro.serve.replan import ReplanPolicy
from repro.serve.report import (
    ABANDONED,
    EVICTED,
    OUT_OF_HORIZON,
    QUEUED,
    REJECTED,
    SERVED,
    SERVING,
    ServeReport,
    SessionOutcome,
)
from repro.sim.cache import EvaluationCache
from repro.sim.dynamic import Segment, Timeline, restrict_mapping
from repro.workloads.traces import SessionRequest
from repro.zoo.layers import ModelSpec
from repro.zoo.registry import get_model

__all__ = ["serve_trace_reference"]


class _Live:
    """The seed loop's mutable per-session record, accounting in plain
    python floats.

    The streaming loop keeps the same lifecycle (eviction parks the
    record, ``epoch`` guards stale events, ``pending_shift`` freezes
    while suspended) and the same per-record floats, but adds them over
    rows it precomputes once per plan; this copy re-derives every
    resident's rate and SLA check in each segment, exactly as the seed
    did.
    """

    __slots__ = ("request", "model", "tier", "admitted_s", "queue_wait_s",
                 "served", "delivered", "gap", "violation",
                 "last_admit_s", "depart_s", "epoch", "pending_shift",
                 "evictions", "demotions", "resumptions")

    def __init__(self, request: SessionRequest, model: ModelSpec,
                 admitted_s: float, queue_wait_s: float):
        self.request = request
        self.model = model
        self.tier = request.tier
        self.admitted_s = admitted_s
        self.queue_wait_s = queue_wait_s
        self.served = 0.0
        self.delivered = 0.0
        self.gap = 0.0
        self.violation = 0.0
        self.last_admit_s = admitted_s
        self.depart_s = admitted_s + request.duration_s
        self.epoch = 0
        self.pending_shift = request.tier_shift
        self.evictions = 0
        self.demotions = 0
        self.resumptions = 0

    def outcome(self, state: str, departed_s: float | None,
                abandoned_s: float | None = None) -> SessionOutcome:
        return SessionOutcome(
            session_id=self.request.session_id, tier=self.tier,
            arrival_s=self.request.arrival_s, outcome=state,
            model=self.model.name, admitted_s=self.admitted_s,
            departed_s=departed_s, queue_wait_s=self.queue_wait_s,
            served_seconds=self.served, delivered_inferences=self.delivered,
            gap_seconds=self.gap, violation_seconds=self.violation,
            evictions=self.evictions, demotions=self.demotions,
            resumptions=self.resumptions, abandoned_s=abandoned_s,
        )

# Same-timestamp processing order (identical to the streaming loop):
# free capacity first, then shifts, then arrivals; queue timeouts last so
# a session admitted or counted at exactly its deadline matches the
# seed's strict `waited > max_wait` abandonment test.
_RANK_DEPARTURE = 0
_RANK_SHIFT = 1
_RANK_ARRIVAL = 2
_RANK_TIMEOUT = 3


def serve_trace_reference(requests, policy: ReplanPolicy,
                          platform: Platform,
                          config: ServeConfig | None = None,
                          cache: EvaluationCache | None = None,
                          ) -> ServeReport:
    """Serve a session-request trace through the reference (oracle) loop.

    Accepts any iterable of :class:`SessionRequest` but materialises it
    immediately — this implementation exists to pin semantics, not to
    scale.  See the module docstring for what it is an oracle *of*.
    """
    requests = list(requests)
    config = config if config is not None else ServeConfig()
    if cache is None:
        cache = EvaluationCache(platform)
    controller = AdmissionController(config.admission)
    preempting = config.admission.preemption != "none"
    for request in requests:                   # validate tiers up front
        controller.tier(request.tier)
        if request.tier_shift is not None:
            controller.tier(request.tier_shift[1])
    rng = np.random.default_rng(config.seed)
    horizon = config.horizon_s
    max_wait = controller.config.max_queue_wait_s

    heap: list[tuple] = []
    seq = 0

    def push(time: float, rank: int, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, rank, seq, kind, payload))
        seq += 1

    live: dict[str, _Live] = {}                # name -> record, in order
    # Waiting room: (request, enqueue_s, suspended record | None,
    # remaining duration, enqueue token).  The token identifies one
    # *stay* in the room — a session that is admitted and later parked
    # again gets a fresh token, so the timeout event of the earlier stay
    # cannot touch it.
    queue: list[tuple[SessionRequest, float, _Live | None, float, int]] = []
    enqueue_tokens = 0
    results: dict[int, SessionOutcome] = {}
    epoch_seq = 0                              # admission epochs, see _Live

    for request in sorted(requests,
                          key=lambda r: (r.arrival_s, r.session_id)):
        if request.arrival_s < horizon:
            push(request.arrival_s, _RANK_ARRIVAL, "arrival", request)
        else:
            results[request.session_id] = SessionOutcome(
                session_id=request.session_id, tier=request.tier,
                arrival_s=request.arrival_s, outcome=OUT_OF_HORIZON)
    timeline = Timeline()
    current = None
    incumbent = None
    clock = 0.0
    replans = 0
    kinds: dict[str, int] = {}
    decision_total = 0.0

    # ------------------------------------------------------------------
    def emit(t0: float, t1: float) -> None:
        duration = t1 - t0
        if duration <= 0:
            return
        names = tuple(live.keys())
        if current is None:
            rates = {n: 0.0 for n in names}
            pots = dict(rates)
        else:
            models, mapping = current
            result = cache.simulate_one(models, mapping)
            rates = {m.name: float(r)
                     for m, r in zip(models, result.rates)}
            pots = {m.name: float(p)
                    for m, p in zip(models, result.potentials)}
            for n in names:                    # admitted but not yet mapped
                rates.setdefault(n, 0.0)
                pots.setdefault(n, 0.0)
        if config.record_timeline:
            timeline.segments.append(Segment(t0, t1, names, rates, pots))
        for n, record in live.items():
            rate = rates[n]
            record.served += duration
            record.delivered += rate * duration
            if rate <= 0.0:
                record.gap += duration
            if pots[n] < controller.tier(record.tier).min_potential:
                record.violation += duration

    # ------------------------------------------------------------------
    def enqueue(request: SessionRequest, t: float, record: _Live | None,
                remaining: float) -> None:
        nonlocal enqueue_tokens
        enqueue_tokens += 1
        queue.append((request, t, record, remaining, enqueue_tokens))
        deadline = controller.queue_deadline(t)
        if deadline < horizon:
            push(deadline, _RANK_TIMEOUT, "timeout", enqueue_tokens)

    def timeout(token: int, t: float) -> None:
        """Abandon the waiting-room stay ``token`` at its true deadline.

        Stale tokens (the session was drained into a slot, or already
        abandoned) simply miss: the stay is no longer in the room.
        """
        for i, (request, _, record, _, tok) in enumerate(queue):
            if tok != token:
                continue
            del queue[i]
            if record is None:
                results[request.session_id] = SessionOutcome(
                    session_id=request.session_id, tier=request.tier,
                    arrival_s=request.arrival_s, outcome=ABANDONED,
                    queue_wait_s=max_wait, abandoned_s=t)
            else:
                # A suspended session that waited out the timeout is
                # eviction collateral, not a plain abandonment.
                record.queue_wait_s += max_wait
                results[request.session_id] = record.outcome(
                    EVICTED, departed_s=None, abandoned_s=t)
            return

    def admit(request: SessionRequest, t: float, queue_wait: float,
              record: _Live | None = None,
              remaining_s: float | None = None) -> None:
        nonlocal epoch_seq
        free = [n for n in config.pool if n not in live]
        name = str(rng.choice(free))
        if record is None:
            record = _Live(request, get_model(name), t, queue_wait)
            duration = request.duration_s
        else:
            record.model = get_model(name)
            record.resumptions += 1
            record.queue_wait_s += queue_wait
            duration = remaining_s
        epoch_seq += 1
        record.epoch = epoch_seq
        record.last_admit_s = t
        record.depart_s = t + duration
        live[name] = record
        if record.depart_s < horizon:
            push(record.depart_s, _RANK_DEPARTURE, "departure",
                 (name, request.session_id, record.epoch))
        if record.pending_shift is not None:
            offset, new_tier = record.pending_shift
            shift_t = t + offset
            if shift_t < min(record.depart_s, horizon):
                push(shift_t, _RANK_SHIFT, "shift",
                     (name, request.session_id, record.epoch, new_tier))

    def queue_tier(item: tuple) -> str:
        """Drain priority follows the *current* tier of a suspended
        record (shifts and demotions included), the request tier else."""
        request, _, record, _, _ = item
        return record.tier if record is not None else request.tier

    def drain(t: float) -> bool:
        admitted_any = False
        while True:
            if not queue or len(live) >= controller.config.capacity:
                break
            if all(n in live for n in config.pool):
                break
            # The oracle's deliberately naive O(n log n)-per-admission
            # re-sort the streaming loop's keyed waiting room is checked
            # against.
            queue.sort(key=lambda item: controller.queue_order_key(
                queue_tier(item), item[1], item[0].session_id))
            request, enqueued, record, remaining, _ = queue.pop(0)
            admit(request, t, queue_wait=t - enqueued, record=record,
                  remaining_s=remaining)
            admitted_any = True
        return admitted_any

    def evict(name: str, t: float) -> None:
        """Suspend the named session: park its record (and remainder) in
        the waiting room and free its slot + pool name."""
        victim = live.pop(name)
        remaining = victim.depart_s - t
        if remaining <= 0:
            results[victim.request.session_id] = victim.outcome(
                SERVED, departed_s=t)
            return
        victim.evictions += 1
        if victim.pending_shift is not None:
            offset, new_tier = victim.pending_shift
            victim.pending_shift = (offset - (t - victim.last_admit_s),
                                    new_tier)
        enqueue(victim.request, t, victim, remaining)

    # ------------------------------------------------------------------
    def handle(kind: str, payload, t: float) -> bool:
        """Apply one event; returns True when a replan is needed."""
        if kind == "arrival":
            request = payload
            free = any(n not in live for n in config.pool)
            if preempting and not controller.can_admit(len(live), free):
                views = tuple(
                    LiveView(name=n, session_id=r.request.session_id,
                             tier=r.tier,
                             priority=controller.tier(r.tier).priority,
                             admitted_s=r.last_admit_s,
                             served_s=r.served)
                    for n, r in live.items())
                # Parked (evicted) sessions do not consume the bounded
                # waiting-room slots — only fresh arrivals count against
                # queue_limit.
                fresh_queued = sum(1 for item in queue
                                   if item[2] is None)
            else:
                views = None
                fresh_queued = len(queue)
            decision, plan = controller.decide_with_plan(
                request.tier, len(live), fresh_queued, free, views)
            if decision == ADMIT:
                admit(request, t, queue_wait=0.0)
                return True
            if decision == PREEMPT:
                if plan.action == EVICT:
                    evict(plan.victim, t)
                else:
                    victim = live[plan.victim]
                    victim.tier = plan.demote_to
                    victim.demotions += 1
                    victim.pending_shift = None
                admit(request, t, queue_wait=0.0)
                return True
            if decision == QUEUE:
                enqueue(request, t, None, request.duration_s)
                return False
            results[request.session_id] = SessionOutcome(
                session_id=request.session_id, tier=request.tier,
                arrival_s=request.arrival_s, outcome=REJECTED)
            return False
        if kind == "departure":
            name, session_id, epoch = payload
            record = live.get(name)
            if record is None or record.request.session_id != session_id \
                    or record.epoch != epoch:
                return False       # stale: slot reused or session resumed
            del live[name]
            results[session_id] = record.outcome(SERVED, departed_s=t)
            drain(t)
            return True
        # kind == "shift"
        name, session_id, epoch, new_tier = payload
        record = live.get(name)
        if record is None or record.request.session_id != session_id \
                or record.epoch != epoch:
            return False
        if record.pending_shift is None:
            return False     # cancelled — e.g. voided by a renegotiation
        record.tier = new_tier
        record.pending_shift = None
        return True

    # ------------------------------------------------------------------
    def replan(t: float) -> float:
        nonlocal current, incumbent, replans, decision_total
        if not live:
            current = None
            incumbent = None
            return t
        workload = [record.model for record in live.values()]
        vector = np.array([controller.tier(record.tier).priority
                           for record in live.values()])
        outcome = policy.replan(workload, vector, incumbent)
        replans += 1
        kinds[outcome.kind] = kinds.get(outcome.kind, 0) + 1
        decision_total += outcome.decision_seconds
        gap = max(0.0, outcome.decision_seconds)
        if gap > 0 and t < horizon:
            if current is not None:
                prev_models, prev_mapping = current
                current = restrict_mapping(
                    prev_mapping, [m.name for m in prev_models], workload)
            gap_end = min(t + gap, horizon)
            emit(t, gap_end)
            t = gap_end
        current = (workload, outcome.mapping)
        incumbent = (tuple(m.name for m in workload), outcome.mapping)
        return t

    # ------------------------------------------------------------------
    while heap:
        t_event, _, _, kind, payload = heap[0]
        if t_event >= horizon:
            break
        if kind == "timeout":
            # Out of band: an abandonment changes no live session, emits
            # no segment and does not advance the clock — it only stamps
            # the true (gap-adjusted) abandonment time on the outcome.
            heapq.heappop(heap)
            timeout(payload, max(clock, t_event))
            continue
        # Events landing inside a decision gap take effect when it closes.
        effective = max(clock, t_event)
        emit(clock, effective)
        clock = effective
        needs_replan = False
        while heap and heap[0][0] == t_event:
            _, _, _, kind, payload = heapq.heappop(heap)
            if kind == "timeout":
                timeout(payload, clock)
            else:
                needs_replan |= handle(kind, payload, clock)
        # A decision once the clock reached the horizon could never take
        # effect: no planner call.
        if needs_replan and clock < horizon:
            clock = replan(clock)

    emit(clock, horizon)

    # ------------------------------------------------------- finalize
    for record in live.values():
        results[record.request.session_id] = record.outcome(
            SERVING, departed_s=None)
    for request, enqueued, record, _, _ in queue:
        # Still waiting at the horizon: the timeout event would have
        # fired inside the horizon, so the stay is shorter than max_wait.
        wait = min(horizon - enqueued, max_wait)
        if record is not None:
            record.queue_wait_s += wait
            results[request.session_id] = record.outcome(
                EVICTED, departed_s=None)
            continue
        results[request.session_id] = SessionOutcome(
            session_id=request.session_id, tier=request.tier,
            arrival_s=request.arrival_s, outcome=QUEUED,
            queue_wait_s=wait)

    sessions = tuple(results[sid] for sid in sorted(results))
    return ServeReport(
        horizon_s=horizon, policy=policy.name,
        manager=_manager_name(policy), sessions=sessions,
        timeline=timeline, replans=replans, replan_kinds=kinds,
        total_decision_seconds=decision_total,
    )
