"""Event-driven online serving loop, built to stream million-session traces.

This is the online layer over the planning stack: raw session requests
(:func:`repro.workloads.iter_session_requests`) flow through an
SLA-tier-aware :class:`~repro.serve.admission.AdmissionController`
(whose configured :mod:`~repro.serve.preempt` policy may evict or
demote a running lower-tier session for a blocked arrival), every
admission/departure/priority shift invokes the configured
:class:`~repro.serve.replan.ReplanPolicy`, and the modeled decision
latency opens a re-mapping gap during which residents keep running on the
restricted incumbent mapping while the change's subject makes no progress.
The clock, event heap, gap rule and segment emitter are the one event core,
:class:`repro.sim.dynamic.EventCore`, that also replays fixed scenarios;
this module adds the serving handlers (arrival with admission and
preemption, departure, tier shift, queue timeout) and their accounting.

The loop is architected for traces far longer than memory:

* **Streaming arrivals** — ``requests`` may be any iterable ordered by
  ``(arrival_s, session_id)``; exactly one not-yet-due arrival is held in
  the event heap, so a generator-fed multi-day trace is never
  materialised.  Lists and tuples are sorted (and tier-validated) up
  front, exactly as before.
* **Plain waiting room** — an insertion-ordered dict maps each stay to
  its :meth:`~repro.serve.admission.AdmissionController.queue_order_key`,
  frozen at enqueue; a drain admits the smallest key, and a drain or a
  timeout deletes the stay.  The room holds at most ``queue_limit``
  fresh arrivals plus parked evictions (16 live stays at most on a
  2e4-session ``test_bench_serve_scale`` trace), so a linear ``min`` per
  freed slot needs no heap and no lazy-deletion sweep.
* **Scheduled queue timeouts** — each enqueue schedules an explicit
  timeout event at
  :meth:`~repro.serve.admission.AdmissionController.queue_deadline`, so
  abandonments fire (and are stamped) at their true time even through
  quiet stretches, instead of whenever the next unrelated event happened
  to scan the queue.
* **Per-record accounting** — a segment never has more residents than
  ``capacity`` (one more under ``renegotiate``), so served/delivered/
  gap/violation are plain floats on each session's record, added over
  one precomputed ``(record, rate, is_gap, is_violating)`` row per
  resident; ``ServeConfig.record_timeline=False`` additionally drops the
  O(events) segment list for scale runs.

An independent, deliberately naive reference loop is kept as a test-only
oracle in ``tests/oracles/serve_reference.py``; the property suite pins
the two bit-identical on randomized traces.

Everything is deterministic in ``(requests, policy manager seed,
ServeConfig.seed)``: the event order is a total order, the only rng draws
pick pool model names at admission, and segment rates come from the
deterministic steady-state solver (via an :class:`EvaluationCache`, so a
persistent warm cache makes repeated runs cheap without changing a bit of
the output).

Note the decision/measurement split when the replan policy's manager
scores candidates with the *learned* estimator
(:class:`~repro.core.EstimatorPredictor`, wired in via
``DynamicScenario.predictor = "estimator"``): the estimator only picks
mappings — and prices each candidate evaluation at the paper's 0.04 s
instead of a full on-board measurement window, shrinking the re-mapping
gaps — while the *realized* segment rates here always come from the
simulated board, the stand-in for what actually runs on the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..hw.platform import Platform
from ..obs import NULL_RECORDER, Recorder
from ..obs.registry import (
    EVAL_CACHE_HITS,
    EVAL_CACHE_MISSES,
    LIVE_SESSIONS,
    PREEMPT_DEMOTIONS,
    PREEMPT_EVICTIONS,
    PREEMPT_RESUMPTIONS,
    QUEUE_ABANDONED,
    QUEUE_DEPTH,
    QUEUE_ENQUEUED,
    QUEUE_WAIT_S,
    REPLAN_DECISION_S,
    REPLAN_INVOCATIONS,
    SPAN_ADMISSION,
    SPAN_PREEMPT,
    SPAN_REPLAN,
)
from ..sim.cache import EvaluationCache
from ..sim.dynamic import QUIET_RANK, EventCore
from ..workloads.traces import SessionRequest
from ..zoo.registry import MODEL_POOL, get_model
from .admission import ADMIT, PREEMPT, QUEUE, AdmissionConfig, AdmissionController
from .preempt import EVICT, LiveView
from .replan import ReplanPolicy
from .report import (
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

__all__ = ["ServeConfig", "serve_trace"]

# Same-timestamp processing order: free capacity before admitting into
# it.  Queue timeouts are the core's quiet events, after everything else,
# so a session admitted (or counted by an arrival's queue-length check) at
# exactly its deadline is not abandoned — the strict `waited > max_wait`
# test of the original lazy purge, now encoded in event rank.
_RANK_DEPARTURE = 0
_RANK_SHIFT = 1
_RANK_ARRIVAL = 2

#: Buffered telemetry spans flush to the recorder in chunks of this
#: size, so loop-side buffering stays O(chunk) on million-session
#: traces (the recorder itself retains top-K spans only).
_SPAN_CHUNK = 4096


@dataclass(frozen=True)
class ServeConfig:
    """One serving node's configuration.

    ``record_timeline`` keeps the per-segment :class:`Timeline` on the
    report; scale runs over millions of events switch it off, which
    drops the only per-event allocation that outlives the event —
    per-session outcomes and aggregates are unaffected.
    """

    horizon_s: float = 600.0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    pool: tuple[str, ...] = MODEL_POOL
    seed: int = 0                  # drives pool-model choice at admission
    record_timeline: bool = True

    def __post_init__(self):
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if not self.pool:
            raise ValueError("pool must not be empty")


class _Live:
    """Mutable accounting record of one admitted session.

    A record survives eviction: it is parked in the waiting room with
    its remaining duration and carried back into the live set on
    resumption, so served/delivered/gap/violation accounting accumulates
    across suspensions.  ``epoch`` (unique per admission, set with
    ``last_admit_s`` and ``depart_s``) guards the heap against stale
    departure/shift events of an earlier service interval.
    ``pending_shift`` is the not-yet-fired tier shift, as an offset
    relative to ``last_admit_s`` — suspended time does not advance it,
    mirroring how the remaining duration freezes while evicted.
    """

    __slots__ = ("request", "model", "tier", "admitted_s", "queue_wait_s",
                 "served", "delivered", "gap", "violation",
                 "last_admit_s", "depart_s", "epoch", "pending_shift",
                 "evictions", "demotions", "resumptions")

    def __init__(self, request: SessionRequest, model, admitted_s: float,
                 queue_wait_s: float):
        self.request = request
        self.model = model
        self.tier = request.tier
        self.admitted_s = admitted_s
        self.queue_wait_s = queue_wait_s
        self.served = 0.0
        self.delivered = 0.0
        self.gap = 0.0
        self.violation = 0.0
        self.pending_shift = request.tier_shift
        self.evictions = 0
        self.demotions = 0
        self.resumptions = 0

    def outcome(self, state: str, departed_s: float | None,
                abandoned_s: float | None = None) -> SessionOutcome:
        """Freeze this record as an outcome."""
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


class _WaitEntry:
    """One stay in the waiting room (fresh arrival or parked eviction).

    A drain or a timeout deletes the stay from the room, so the timeout
    of a stay that was drained finds it gone and misses.  A re-parked
    session gets a fresh entry, so the timeout of an earlier stay can
    never touch it.
    """

    __slots__ = ("request", "enqueue_s", "record", "remaining")

    def __init__(self, request: SessionRequest, enqueue_s: float,
                 record: _Live | None, remaining: float):
        self.request = request
        self.enqueue_s = enqueue_s
        self.record = record
        self.remaining = remaining


def _manager_name(policy: ReplanPolicy) -> str:
    inner = policy
    while not hasattr(inner, "manager") and hasattr(inner, "inner"):
        inner = inner.inner
    manager = getattr(inner, "manager", None)
    return getattr(manager, "name", "unknown")


def _unadmitted(request: SessionRequest, state: str,
                **fields) -> SessionOutcome:
    """Outcome of a request that holds no admitted record."""
    return SessionOutcome(session_id=request.session_id, tier=request.tier,
                          arrival_s=request.arrival_s, outcome=state,
                          **fields)


def serve_trace(requests: Iterable[SessionRequest], policy: ReplanPolicy,
                platform: Platform, config: ServeConfig | None = None,
                cache: EvaluationCache | None = None,
                recorder: Recorder = NULL_RECORDER) -> ServeReport:
    """Serve a raw session-request trace and report what happened.

    ``requests`` is any iterable of :class:`SessionRequest`.  A list or
    tuple is tier-validated and sorted up front, exactly as before.  Any
    other iterable — e.g. :func:`repro.workloads.iter_session_requests`
    — is consumed lazily, one arrival ahead of the event clock, and must
    already be ordered by ``(arrival_s, session_id)``; a disordered
    stream raises :class:`ValueError` at the offending request.

    ``cache`` is the evaluation cache segment rates are solved through;
    pass a shared (possibly disk-loaded) instance to start warm — the
    report is bit-identical either way, only the wall clock changes.

    ``recorder`` is the telemetry sink (:mod:`repro.obs`).  The default
    null recorder collects nothing; a
    :class:`~repro.obs.TelemetryRecorder` additionally captures the
    decision path (admission verdicts, preemptions, replans), queue and
    live-set metrics, realized plan segments and the in-run evaluation
    cache hit/miss deltas — all as a pure side channel: the report is
    bit-identical with recording on or off.
    """
    config = config if config is not None else ServeConfig()
    if cache is None:
        cache = EvaluationCache(platform)
    loop = _ServeLoop(requests, policy, config, cache, recorder)
    loop.run()
    return loop.report()


class _ServeLoop(EventCore):
    """One node's serving state and event handlers over the event core.

    ``residents`` maps each live session's pool name to its
    :class:`_Live` record, in admission order.
    """

    def __init__(self, requests: Iterable[SessionRequest],
                 policy: ReplanPolicy, config: ServeConfig,
                 cache: EvaluationCache, recorder: Recorder):
        super().__init__(config.horizon_s, cache, config.record_timeline)
        self.policy = policy
        self.recorder = recorder
        self.recording = recorder.enabled
        # Hot-path telemetry is accumulated locally and flushed to the
        # recorder once at the end: gauges keep only their last write and
        # segments sum per plan key, so the flushed snapshot is
        # bit-identical to per-event recording at a fraction of the
        # per-event cost.
        self.live_gauge: tuple[float, float] | None = None
        self.depth_gauge: tuple[float, float] | None = None
        self.count_acc: dict[tuple[str, str], float] = {}
        self.adm_spans: list[tuple] = []     # (t, tier, verdict, session_id)
        self.replan_spans: list[tuple] = []  # (t, decision_s, kind, dnns)
        # Realized-plan accumulator cells ``[result, key, duration]``,
        # memoised on the cache's SimResult identity: the cache returns
        # the *same* result object for a repeated (workload, mapping), and
        # holding the result in the cell keeps its id from being reused.
        # A rebuild for a plan already seen skips re-deriving the (names,
        # assignments, rates) triple, and account adds onto the cell —
        # never hashing the nested key on the hot path.  Memory is
        # O(distinct plans), the recorder-segment contract.
        self.seg_cells: dict[int, list] = {}

        self.cache_hits0, self.cache_misses0 = cache.hits, cache.misses
        self.controller = AdmissionController(config.admission,
                                              recorder=recorder)
        self.preempting = config.admission.preemption != "none"
        self.rng = np.random.default_rng(config.seed)
        self.max_wait = self.controller.config.max_queue_wait_s
        self.capacity = self.controller.config.capacity
        self.pool = config.pool
        # Residents hold distinct pool names: one is free while fewer live.
        self.pool_size = len(set(config.pool))

        self.results: dict[int, SessionOutcome] = {}
        self.presorted = isinstance(requests, (list, tuple))
        if self.presorted:
            for request in requests:           # validate tiers up front
                self.validate(request)
            requests = sorted(requests,
                              key=lambda r: (r.arrival_s, r.session_id))
        self.stream = iter(requests)
        self.last_key = None

        # Waiting room: each stay -> its drain key, in enqueue order, so
        # `min` breaks key ties first-come; `queued_fresh` counts the
        # fresh-arrival stays so admission decisions never scan it.
        self.waiting: dict[_WaitEntry, tuple] = {}
        self.queued_fresh = 0
        self.epoch_seq = 0                     # admission epochs, see _Live
        self.kinds: dict[str, int] = {}
        self.decision_total = 0.0
        self.pull_arrival()

    # ------------------------------------------------------------ telemetry
    def tick(self, name: str, label: str = "") -> None:
        """Accumulate one locally batched counter tick (recording only)."""
        try:
            self.count_acc[name, label] += 1.0
        except KeyError:
            self.count_acc[name, label] = 1.0

    def flush_spans(self) -> None:
        """Bulk-feed the buffered span streams to the recorder.

        Runs at every :data:`_SPAN_CHUNK` boundary and once at end of
        run; identical retained spans and stats to per-event emission
        (only the recorder-local seq numbering shifts, which no
        contract observes).
        """
        recorder = self.recorder
        if self.adm_spans:
            recorder.span_batch(SPAN_ADMISSION, (
                (t, 0.0, (("session", session), ("tier", tier),
                          ("verdict", verdict)))
                for t, tier, verdict, session in self.adm_spans))
            self.adm_spans.clear()
        if self.replan_spans:
            policy_pair = ("policy", self.policy.name)
            recorder.span_batch(SPAN_REPLAN, (
                (t, duration, (("dnns", dnns), ("kind", kind), policy_pair))
                for t, duration, kind, dnns in self.replan_spans))
            for _, duration, _, _ in self.replan_spans:
                recorder.observe(REPLAN_DECISION_S, duration)
            self.replan_spans.clear()

    # ------------------------------------------------------------- ingest
    def validate(self, request: SessionRequest) -> None:
        self.controller.tier(request.tier)
        if request.tier_shift is not None:
            self.controller.tier(request.tier_shift[1])

    def pull_arrival(self) -> None:
        """Advance the stream until one in-horizon arrival is on the heap.

        Out-of-horizon requests get their ledger outcome immediately; an
        ordered stream only yields those from the first one on, so this
        drains the tail in one go and the stream ends.
        """
        for request in self.stream:
            if not self.presorted:
                self.validate(request)
                key = (request.arrival_s, request.session_id)
                if self.last_key is not None and key < self.last_key:
                    raise ValueError(
                        "streamed session requests must be ordered by "
                        f"(arrival_s, session_id); got {key} after "
                        f"{self.last_key}")
                self.last_key = key
            if request.arrival_s < self.horizon:
                self.push(request.arrival_s, _RANK_ARRIVAL, self.arrival,
                          request)
                return
            # A trace sampled for a longer horizon: account for the demand
            # this run never observes instead of silently dropping it.
            self.results[request.session_id] = _unadmitted(request,
                                                           OUT_OF_HORIZON)

    # ----------------------------------------------------------- segments
    # Per-segment state is a pure function of (live set, tiers, deployed
    # mapping), which only change on a replan; the core rebuilds it only
    # then, so a burst of rejected arrivals re-uses the same per-resident
    # rows across all its segments.
    def segment_state(self) -> tuple:
        names, rates, pots, result = super().segment_state()
        live = self.residents
        seg_cell = None
        if result is not None and self.recording:
            # The realized (workload, mapping, rates) identity of this
            # plan — service time aggregates by it, so telemetry stays
            # O(distinct plans), not O(events).
            seg_cell = self.seg_cells.get(id(result))
            if seg_cell is None:
                key = (result.workload_names, self.deployed[1].assignments,
                       tuple(float(r) for r in result.rates))
                seg_cell = self.seg_cells[id(result)] = [result, key, 0.0]
        tier = self.controller.tier
        rows = tuple((record, rates[n], rates[n] <= 0.0,
                      pots[n] < tier(record.tier).min_potential)
                     for n, record in live.items())
        return names, rates, pots, result, rows, seg_cell

    def account(self, state: tuple, duration: float) -> None:
        _, _, _, _, rows, seg_cell = state
        if seg_cell is not None:          # set only when recording
            seg_cell[2] += duration
        for record, rate, is_gap, is_violating in rows:
            record.served += duration
            record.delivered += rate * duration
            if is_gap:
                record.gap += duration
            if is_violating:
                record.violation += duration

    # ------------------------------------------------------- waiting room
    def enqueue(self, request: SessionRequest, t: float,
                record: _Live | None, remaining: float) -> None:
        entry = _WaitEntry(request, t, record, remaining)
        tier = record.tier if record is not None else request.tier
        self.waiting[entry] = self.controller.queue_order_key(
            tier, t, request.session_id)
        if record is None:
            self.queued_fresh += 1
        if self.recording:
            self.tick(QUEUE_ENQUEUED, tier)
            self.depth_gauge = (t, len(self.waiting))
        self.push(self.controller.queue_deadline(t), QUIET_RANK,
                  self.timeout, entry)

    def admit(self, request: SessionRequest, t: float, queue_wait: float,
              duration: float, record: _Live | None = None) -> None:
        """Start (or resume ``record``) on a random free pool name for
        ``duration`` seconds of service."""
        live = self.residents
        free = [n for n in self.pool if n not in live]
        name = str(self.rng.choice(free))
        if record is None:
            record = _Live(request, get_model(name), t, queue_wait)
        else:
            # Resumption: the suspended record re-admits with its
            # remainder, possibly under a different free pool name.
            record.model = get_model(name)
            record.resumptions += 1
            record.queue_wait_s += queue_wait
            if self.recording:
                self.tick(PREEMPT_RESUMPTIONS)
        if self.recording and queue_wait > 0.0:
            self.recorder.observe(QUEUE_WAIT_S, queue_wait)
        self.epoch_seq += 1
        record.epoch = self.epoch_seq
        record.last_admit_s = t
        record.depart_s = t + duration
        live[name] = record
        if self.recording:
            self.live_gauge = (t, len(live))
        self.push(record.depart_s, _RANK_DEPARTURE, self.departure,
                  (name, record.epoch))
        if record.pending_shift is not None:
            offset, new_tier = record.pending_shift
            if t + offset < record.depart_s:
                self.push(t + offset, _RANK_SHIFT, self.shift,
                          (name, record.epoch, new_tier))

    def drain(self, t: float) -> None:
        """Admit waiting sessions into freed capacity, best key first.

        Keys are frozen at enqueue time — a parked record's tier cannot
        change while suspended — so each admission is one ``min`` over the
        room's keys, not a re-sort of the room.
        """
        live, waiting = self.residents, self.waiting
        limit = min(self.capacity, self.pool_size)
        while waiting and len(live) < limit:
            entry = min(waiting, key=waiting.__getitem__)
            del waiting[entry]
            if entry.record is None:
                self.queued_fresh -= 1
            self.admit(entry.request, t, t - entry.enqueue_s,
                       entry.remaining, entry.record)
            if self.recording:             # the gauge keeps its last write
                self.depth_gauge = (t, len(waiting))

    def evict(self, name: str, t: float) -> None:
        """Suspend the named session: park its record (and remainder) in
        the waiting room and free its slot + pool name."""
        victim = self.residents.pop(name)
        if self.recording:
            self.live_gauge = (t, len(self.residents))
        remaining = victim.depart_s - t
        if remaining <= 0:
            # A decision gap delayed the victim's own departure past this
            # arrival: it has already served its full duration, so it
            # completes here instead of parking an empty remainder (and
            # being misreported as eviction collateral).
            self.results[victim.request.session_id] = victim.outcome(
                SERVED, departed_s=t)
            return
        victim.evictions += 1
        if victim.pending_shift is not None:
            offset, new_tier = victim.pending_shift
            victim.pending_shift = (offset - (t - victim.last_admit_s),
                                    new_tier)
        self.enqueue(victim.request, t, victim, remaining)

    # ------------------------------------------------------------ handlers
    def arrival(self, request: SessionRequest, t: float) -> bool:
        """Admission verdict for a fresh arrival; then pull the next one."""
        live = self.residents
        controller = self.controller
        free = len(live) < self.pool_size
        if self.preempting and not controller.can_admit(len(live), free):
            views = tuple(
                LiveView(name=n, session_id=r.request.session_id,
                         tier=r.tier,
                         priority=controller.tier(r.tier).priority,
                         admitted_s=r.last_admit_s,
                         served_s=r.served)
                for n, r in live.items())
            # Suspended (evicted) sessions park in the waiting room but
            # do not consume its bounded slots — only fresh arrivals count
            # against queue_limit, else evictions would crowd out the very
            # tier they were made for.
            queue_len = self.queued_fresh
        else:
            # No policy can preempt (every queued entry is fresh, so the
            # total count is exact) — or the arrival admits outright and
            # the verdict reads neither value: skip the per-arrival view
            # build either way.
            views = None
            queue_len = len(self.waiting)
        decision, plan = controller.decide_with_plan(
            request.tier, len(live), queue_len, free, views)
        if self.recording:
            # Highest-volume span site: buffered raw, bulk-fed to the
            # recorder at chunk boundaries (see flush_spans).
            self.adm_spans.append((t, request.tier, decision,
                                   request.session_id))
            if len(self.adm_spans) >= _SPAN_CHUNK:
                self.flush_spans()
        if decision == PREEMPT:
            if self.recording:
                self.tick(PREEMPT_EVICTIONS if plan.action == EVICT
                          else PREEMPT_DEMOTIONS)
                self.recorder.span(SPAN_PREEMPT, t, 0.0,
                                   (("action", plan.action),
                                    ("session", request.session_id),
                                    ("victim", plan.victim)))
            if plan.action == EVICT:
                self.evict(plan.victim, t)
            else:
                victim = live[plan.victim]
                victim.tier = plan.demote_to
                victim.demotions += 1
                # The tier contract was renegotiated: a pending
                # mid-session promotion is void with it (its heap event
                # is ignored by the None guard in `shift`).
                victim.pending_shift = None
        if decision == ADMIT or decision == PREEMPT:
            self.admit(request, t, 0.0, request.duration_s)
        elif decision == QUEUE:
            self.enqueue(request, t, None, request.duration_s)
        else:
            self.results[request.session_id] = _unadmitted(request, REJECTED)
        self.pull_arrival()
        return decision == ADMIT or decision == PREEMPT

    def departure(self, payload: tuple, t: float) -> bool:
        name, epoch = payload
        live = self.residents
        record = live.get(name)
        if record is None or record.epoch != epoch:
            return False           # stale: slot reused or session resumed
        del live[name]
        if self.recording:
            self.live_gauge = (t, len(live))
        self.results[record.request.session_id] = record.outcome(
            SERVED, departed_s=t)
        self.drain(t)
        return True

    def shift(self, payload: tuple, t: float) -> bool:
        name, epoch, new_tier = payload
        record = self.residents.get(name)
        if record is None or record.epoch != epoch:
            return False
        if record.pending_shift is None:
            return False     # cancelled — e.g. voided by a renegotiation
        record.tier = new_tier
        record.pending_shift = None
        return True

    def timeout(self, entry: _WaitEntry, t: float) -> bool:
        """Abandon a waited-out stay at its true deadline ``t``.

        A quiet event: an abandonment changes no live session, so alone
        at its timestamp it emits no segment and does not move the clock.
        """
        if self.waiting.pop(entry, None) is None:
            return False           # drained into a slot before the bell
        if entry.record is None:
            self.queued_fresh -= 1
        if self.recording:
            tier = entry.record.tier if entry.record else entry.request.tier
            self.tick(QUEUE_ABANDONED, tier)
            self.depth_gauge = (t, len(self.waiting))
        self.close_stay(entry, self.max_wait, ABANDONED, abandoned_s=t)
        return False

    def close_stay(self, entry: _WaitEntry, wait: float, state: str,
                   abandoned_s: float | None = None) -> None:
        """Ledger outcome of a stay that ends unadmitted after ``wait``:
        ``state`` for a fresh arrival, eviction collateral (not a plain
        abandonment or wait) for a suspended session."""
        record = entry.record
        if record is None:
            outcome = _unadmitted(entry.request, state, queue_wait_s=wait,
                                  abandoned_s=abandoned_s)
        else:
            record.queue_wait_s += wait
            outcome = record.outcome(EVICTED, departed_s=None,
                                     abandoned_s=abandoned_s)
        self.results[entry.request.session_id] = outcome

    # ------------------------------------------------------------ planning
    def plan(self, t: float):
        live = self.residents.values()
        workload = [record.model for record in live]
        tier = self.controller.tier
        vector = np.array([tier(record.tier).priority for record in live])
        deployed = self.deployed
        incumbent = None if deployed is None else (
            tuple(m.name for m in deployed[0]), deployed[1])
        outcome = self.policy.replan(workload, vector, incumbent)
        self.kinds[outcome.kind] = self.kinds.get(outcome.kind, 0) + 1
        self.decision_total += outcome.decision_seconds
        if self.recording:
            # Buffered like the admission spans; the invocation counter
            # flushes from the loop's own `kinds` tally at end of run.
            self.replan_spans.append((t, outcome.decision_seconds,
                                      outcome.kind, len(workload)))
            if len(self.replan_spans) >= _SPAN_CHUNK:
                self.flush_spans()
        return workload, outcome

    # ------------------------------------------------------------ finalize
    def report(self) -> ServeReport:
        """Close every open session's ledger and flush the telemetry."""
        horizon, results = self.horizon, self.results
        for record in self.residents.values():
            results[record.request.session_id] = record.outcome(
                SERVING, departed_s=None)
        for entry in self.waiting:
            # Still waiting at the horizon: the timeout event would have
            # fired inside the horizon, so the stay is shorter than
            # max_wait.
            self.close_stay(
                entry, min(horizon - entry.enqueue_s, self.max_wait),
                QUEUED)

        if self.recording:
            # Flush the locally accumulated hot-path telemetry (see
            # __init__): batched counter ticks and per-plan segment sums
            # in first-seen order, then the final gauge writes.
            recorder, cache = self.recorder, self.cache
            self.controller.flush_verdicts()
            self.flush_spans()
            for kind, n in self.kinds.items():
                recorder.count(REPLAN_INVOCATIONS, float(n), label=kind)
            for (name, label), value in self.count_acc.items():
                recorder.count(name, value, label=label)
            for cell in self.seg_cells.values():
                recorder.segment(cell[1], cell[2])
            if self.live_gauge is not None:
                recorder.gauge(LIVE_SESSIONS, *self.live_gauge)
            if self.depth_gauge is not None:
                recorder.gauge(QUEUE_DEPTH, *self.depth_gauge)
            # In-run evaluation-cache effectiveness: deltas against the
            # (possibly pre-warmed, possibly shared) cache's starting
            # totals.
            recorder.count(EVAL_CACHE_HITS,
                           float(cache.hits - self.cache_hits0))
            recorder.count(EVAL_CACHE_MISSES,
                           float(cache.misses - self.cache_misses0))

        sessions = tuple(results[sid] for sid in sorted(results))
        return ServeReport(
            horizon_s=horizon, policy=self.policy.name,
            manager=_manager_name(self.policy), sessions=sessions,
            timeline=self.timeline, replans=sum(self.kinds.values()),
            replan_kinds=self.kinds,
            total_decision_seconds=self.decision_total,
        )
