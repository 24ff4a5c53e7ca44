"""Dynamic multi-DNN scenarios: arrivals, departures, priority changes.

Reproduces the paper's Fig. 8 (DNNs arriving every 150 s) and Fig. 10
(user priority shifts) experiments.  A *planner* callback — any manager —
is invoked whenever the active set or the priority vector changes; its
decision latency opens a gap during which the previous mapping keeps
running and a newly arrived DNN makes no progress yet (rate 0), exactly the
grey dashed re-mapping gaps in the paper's Fig. 10.

:class:`EventCore` runs every dynamic run: this replay
(:func:`run_dynamic_scenario`) and the online serving loop
(:func:`repro.serve.serve_trace`) add only their event handlers and
planner call.  Its gap rules:

* every event sharing a timestamp is applied first, then the planner is
  called once for the resulting active set and priorities;
* an event that lands inside a decision gap takes effect when the gap
  closes, so segments never overlap and tile ``[0, horizon)`` exactly;
* an event at or past the horizon is never applied, and once a gap has
  carried the clock to the horizon no planner is called.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..zoo.layers import ModelSpec
from .cache import EvaluationCache

__all__ = [
    "MappingDecision",
    "Planner",
    "ScenarioEvent",
    "arrival",
    "departure",
    "priority_change",
    "Segment",
    "Timeline",
    "EventCore",
    "QUIET_RANK",
    "restrict_mapping",
    "run_dynamic_scenario",
]


@dataclass(frozen=True)
class MappingDecision:
    """A planner's output: the mapping plus how long the decision took."""

    mapping: Mapping
    decision_seconds: float = 0.0


# A planner maps (workload, user priority vector or None) to a decision.
Planner = Callable[[list[ModelSpec], "np.ndarray | None"], MappingDecision]


@dataclass(frozen=True)
class ScenarioEvent:
    """One timeline event."""

    time: float
    kind: str                       # "arrival" | "departure" | "priority"
    model: ModelSpec | None = None
    priorities: dict[str, float] | None = None


def arrival(time: float, model: ModelSpec) -> ScenarioEvent:
    """``model`` joins the active set at ``time``."""
    return ScenarioEvent(time, "arrival", model=model)


def departure(time: float, model: ModelSpec) -> ScenarioEvent:
    """``model`` leaves the active set at ``time``."""
    return ScenarioEvent(time, "departure", model=model)


def priority_change(time: float, priorities: dict[str, float]) -> ScenarioEvent:
    """Set the user priorities named in ``priorities`` at ``time``."""
    return ScenarioEvent(time, "priority", priorities=priorities)


@dataclass(frozen=True)
class Segment:
    """Steady-state interval of the timeline."""

    t_start: float
    t_end: float
    names: tuple[str, ...]
    rates: dict[str, float]
    potentials: dict[str, float]

    @property
    def duration(self) -> float:
        """Length of the segment in seconds."""
        return self.t_end - self.t_start


@dataclass
class Timeline:
    """Piecewise-constant record of a dynamic scenario."""

    segments: list[Segment] = field(default_factory=list)

    def potential_at(self, name: str, t: float) -> float | None:
        """P of ``name`` at time ``t`` (None before arrival/after departure)."""
        for seg in self.segments:
            if seg.t_start <= t < seg.t_end:
                return seg.potentials.get(name)
        return None

    def time_average_throughput(self) -> float:
        """Duration-weighted mean of the per-segment average rate."""
        total_time = sum(s.duration for s in self.segments)
        if total_time <= 0:
            return 0.0
        acc = 0.0
        for s in self.segments:
            if s.rates:
                acc += s.duration * (sum(s.rates.values()) / len(s.rates))
        return acc / total_time

    def min_potential(self, name: str) -> float:
        """Lowest P ``name`` experienced while it was mapped and running
        (rate > 0: decision gaps it waits out unmapped do not count)."""
        values = [s.potentials[name] for s in self.segments
                  if s.rates.get(name, 0.0) > 0.0]
        return min(values) if values else float("nan")

    def final_potentials(self) -> dict[str, float]:
        """P of every DNN active in the last segment ({} when empty)."""
        return dict(self.segments[-1].potentials) if self.segments else {}


def restrict_mapping(mapping: Mapping | None, old_names: list[str],
                     new_workload: list[ModelSpec]) -> tuple[list[ModelSpec], Mapping] | None:
    """Keep the old mapping for DNNs still active (decision-gap behaviour).

    Returns the surviving ``(models, mapping)`` pair in the old mapping's
    order, or ``None`` when nothing survives.
    """
    if mapping is None:
        return None
    keep_models: list[ModelSpec] = []
    keep_assign: list[tuple[int, ...]] = []
    by_name = {m.name: m for m in new_workload}
    for name, assignment in zip(old_names, mapping.assignments):
        if name in by_name:
            keep_models.append(by_name[name])
            keep_assign.append(assignment)
    if not keep_models:
        return None
    return keep_models, Mapping(tuple(keep_assign))


#: Rank of quiet events: above any rank a caller uses, so they run after
#: every other event sharing their timestamp (see :class:`EventCore`).
QUIET_RANK = 1 << 30


class EventCore:
    """Clock, event heap, decision gaps and segment emitter of a dynamic run.

    A subclass brings the event vocabulary: handlers, scheduled with
    :meth:`push`, run as ``handler(payload, t) -> bool`` at the
    gap-adjusted time ``t``, keep :attr:`residents` (name -> record, in
    arrival order) current, and return True when they changed what
    :meth:`segment_state` reads.  The core then calls the subclass's
    ``plan(t) -> (models, decision)``; ``decision`` carries ``mapping``
    and ``decision_seconds``.  A :data:`QUIET_RANK` event changes no
    resident: alone at its timestamp it neither ends a segment nor moves
    the clock.  Segment state is memoised until the next plan.
    """

    def __init__(self, horizon: float, cache: EvaluationCache,
                 record_timeline: bool = True):
        self.horizon = horizon
        self.cache = cache
        self.clock = 0.0
        self.residents: dict = {}
        #: ``(models, mapping)`` running now; None while nothing is.
        self.deployed: tuple[list[ModelSpec], Mapping] | None = None
        self.timeline = Timeline()
        self.record_timeline = record_timeline
        self._heap: list[tuple] = []
        self._seq = 0
        self._segment: tuple | None = None     # None: rebuild on next emit

    def push(self, time: float, rank: int, handler, payload) -> None:
        """Schedule ``handler(payload, t)`` unless ``time`` is at or past
        the horizon; ties on ``time`` run by ascending ``rank``, then in
        push order."""
        if time < self.horizon:
            heapq.heappush(self._heap,
                           (time, rank, self._seq, handler, payload))
            self._seq += 1

    def run(self) -> None:
        """Apply every scheduled event, then close the timeline."""
        heap, horizon, pop = self._heap, self.horizon, heapq.heappop
        while heap:
            t_event, rank, _, handler, payload = heap[0]
            if rank == QUIET_RANK:
                pop(heap)
                handler(payload, max(self.clock, t_event))
                continue
            # Events landing inside a decision gap take effect when it
            # closes.
            clock = self.clock
            if t_event > clock:
                self.emit(clock, t_event)
                self.clock = clock = t_event
            replan = False
            while heap and heap[0][0] == t_event:
                _, _, _, handler, payload = pop(heap)
                replan |= handler(payload, clock)
            if replan and clock < horizon:
                self._replan()
        self.emit(self.clock, horizon)

    def _replan(self) -> None:
        self._segment = None
        if not self.residents:
            self.deployed = None
            return
        models, decision = self.plan(self.clock)
        gap = max(0.0, decision.decision_seconds)
        if gap > 0:
            # Decision window: residents run the incumbent restricted to
            # themselves; the change's subject waits at rate 0.
            if self.deployed is not None:
                prev_models, prev_mapping = self.deployed
                self.deployed = restrict_mapping(
                    prev_mapping, [m.name for m in prev_models], models)
            gap_end = min(self.clock + gap, self.horizon)
            self.emit(self.clock, gap_end)
            self.clock = gap_end
            self._segment = None
        self.deployed = (models, decision.mapping)

    def segment_state(self) -> tuple:
        """``(names, rates, potentials, result)`` of the residents now,
        solved through the cache; residents the deployed mapping does not
        cover run at rate 0.  A subclass may append fields for
        :meth:`account`."""
        names = tuple(self.residents)
        if self.deployed is None:
            rates = {n: 0.0 for n in names}
            return names, rates, dict(rates), None
        models, mapping = self.deployed
        result = self.cache.simulate_one(models, mapping)
        rates = {m.name: float(r) for m, r in zip(models, result.rates)}
        pots = {m.name: float(p) for m, p in zip(models, result.potentials)}
        for n in names:                      # resident but not yet mapped
            rates.setdefault(n, 0.0)
            pots.setdefault(n, 0.0)
        return names, rates, pots, result

    def account(self, state: tuple, duration: float) -> None:
        """Charge one emitted segment of ``state`` lasting ``duration``."""

    def emit(self, t0: float, t1: float) -> None:
        """Record ``[t0, t1)`` at the current segment state."""
        duration = t1 - t0
        if duration <= 0:
            return
        state = self._segment
        if state is None:
            state = self._segment = self.segment_state()
        if self.record_timeline:
            self.timeline.segments.append(
                Segment(t0, t1, state[0], state[1], state[2]))
        self.account(state, duration)


#: Priority of a DNN that arrives before any priority event names it.
_DEFAULT_PRIORITY = 0.1


class _Replay(EventCore):
    """:func:`run_dynamic_scenario`'s handlers over the event core."""

    def __init__(self, events: list[ScenarioEvent], planner: Planner,
                 platform: Platform, horizon: float):
        super().__init__(horizon, EvaluationCache(platform))
        self.planner = planner
        self.priorities: dict[str, float] = {}
        handlers = {"arrival": self.arrival, "departure": self.departure,
                    "priority": self.priority}
        for event in events:
            self.push(event.time, 0, handlers.get(event.kind, self.unknown),
                      event)

    def arrival(self, event: ScenarioEvent, t: float) -> bool:
        if event.model is None:
            raise ValueError("arrival event needs a model")
        name = event.model.name
        if name in self.residents:
            raise ValueError(
                f"{name!r} arrives at t={event.time} while already active")
        self.residents[name] = event.model
        self.priorities.setdefault(name, _DEFAULT_PRIORITY)
        return True

    def departure(self, event: ScenarioEvent, t: float) -> bool:
        if event.model is None:
            raise ValueError("departure event needs a model")
        self.residents.pop(event.model.name, None)
        self.priorities.pop(event.model.name, None)
        return True

    def priority(self, event: ScenarioEvent, t: float) -> bool:
        if not event.priorities:
            raise ValueError("priority event needs a priority dict")
        self.priorities.update(event.priorities)
        return True

    def unknown(self, event: ScenarioEvent, t: float) -> bool:
        raise ValueError(f"unknown event kind {event.kind!r}")

    def plan(self, t: float):
        models = list(self.residents.values())
        vector = np.array([self.priorities[n] for n in self.residents])
        return models, self.planner(models, vector)


def run_dynamic_scenario(events: list[ScenarioEvent], planner: Planner,
                         platform: Platform, horizon: float) -> Timeline:
    """Simulate a scenario and return its piecewise-constant timeline.

    See the module docstring for the gap rules.  Raises ``ValueError``
    for an empty event list and for a malformed event before the
    horizon: an arrival or departure without a model, a priority event
    without priorities, an unknown kind, or a second arrival of a DNN
    name that is already active.
    """
    if not events:
        raise ValueError("scenario needs at least one event")
    replay = _Replay(events, planner, platform, horizon)
    replay.run()
    return replay.timeline
