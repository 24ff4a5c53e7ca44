"""Discrete-event pipeline execution simulator (extension; DESIGN.md §6).

The analytical engine (:mod:`repro.sim.contention`) solves steady-state
*fluid* rates.  This module executes the same mapping as a discrete-event
simulation: every (stage, inference) pair is a non-preemptive job, each
component serves one job at a time under start-time fair queueing (SFQ)
with the component's entitlement weights, and inferences flow through
bounded inter-stage buffers.  Two things come out of it:

* **Cross-validation** — an independent second opinion on the analytical
  solver.  The two share the physical layer (layer latencies, interference
  inflation, transfer costs) but disagree on scheduling (explicit queueing
  vs. fluid water-filling), so agreement on rates and on mapping *ordering*
  is evidence neither is an artefact of its own approximations
  (tests/test_sim_des.py, experiment id ``desval``).
* **Latency** — per-inference end-to-end latency percentiles, which a
  steady-state fluid model cannot express at all (pipeline depth, queueing
  delay and head-of-line blocking all show up here).

Scheduling notes: non-preemptive SFQ mirrors the board — one kernel runs
at a time per accelerator queue, and a freshly woken stage cannot burn
banked idle credit (SFQ start tags are clamped to the component's virtual
time).  Head-of-line blocking therefore *emerges* from the event order
instead of being a calibrated coefficient as in the analytical model.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from ..hw.energy import interference_inflation
from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..zoo.layers import ModelSpec
from .demands import compute_stage_demands

__all__ = ["DesConfig", "DesResult", "simulate_des"]


@dataclass(frozen=True)
class DesConfig:
    """Horizon, warm-up and buffering knobs of the event simulation."""

    horizon_s: float = 30.0
    warmup_s: float = 5.0
    buffer_depth: int = 2      # finished-but-unconsumed items between stages
    apply_interference: bool = True

    def __post_init__(self):
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if not 0.0 <= self.warmup_s < self.horizon_s:
            raise ValueError("warmup_s must lie within [0, horizon_s)")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be at least 1")


@dataclass(frozen=True)
class DesResult:
    """Measured outcome of one discrete-event run."""

    workload_names: tuple[str, ...]
    rates: np.ndarray                    # inferences/s per DNN (post warm-up)
    completions: np.ndarray              # raw completion counts per DNN
    latencies: dict[str, np.ndarray]     # end-to-end seconds per inference
    measured_seconds: float

    def latency_percentile(self, name: str, q: float) -> float:
        """End-to-end latency percentile (q in [0, 100]) for one DNN."""
        samples = self.latencies[name]
        if samples.size == 0:
            return float("nan")
        return float(np.percentile(samples, q))

    def mean_latency(self, name: str) -> float:
        samples = self.latencies[name]
        return float(samples.mean()) if samples.size else float("nan")

    @property
    def average_throughput(self) -> float:
        """The paper's T over the measured window."""
        return float(self.rates.mean())


@dataclass
class _Stage:
    """Mutable run state of one pipeline stage."""

    dnn: int
    component: int
    service_s: float
    weight: float
    prev: "_Stage | None" = None
    next: "_Stage | None" = None
    started: int = 0        # inferences this stage has begun
    done: int = 0           # inferences this stage has finished
    finish_tag: float = 0.0  # SFQ virtual finish time
    start_times: list[float] = field(default_factory=list)

    def eligible(self, buffer_depth: int) -> bool:
        """Can this stage begin its next inference right now?"""
        if self.started > self.done:
            return False                       # already in service
        if self.prev is not None and self.prev.done <= self.started:
            return False                       # input not produced yet
        if self.next is not None and \
                self.done - self.next.started >= buffer_depth:
            return False                       # output buffer full
        return True


def _build_stages(workload: list[ModelSpec], mapping: Mapping,
                  platform: Platform,
                  apply_interference: bool) -> list[_Stage]:
    demands = compute_stage_demands(workload, mapping, platform)
    inflation = (interference_inflation(platform, demands)
                 if apply_interference else np.ones(platform.num_components))

    stages: list[_Stage] = []
    per_dnn: dict[int, list[_Stage]] = {}
    for demand in demands:     # demands arrive in (dnn, stage) order
        kappa = platform.component(demand.component).sharing_bias
        service = demand.seconds_per_inference * inflation[demand.component]
        stage = _Stage(dnn=demand.dnn_index, component=demand.component,
                       service_s=service, weight=max(service, 1e-12) ** kappa)
        per_dnn.setdefault(demand.dnn_index, []).append(stage)
        stages.append(stage)
    for chain in per_dnn.values():
        for a, b in itertools.pairwise(chain):
            a.next = b
            b.prev = a
    return stages


def simulate_des(workload: list[ModelSpec], mapping: Mapping,
                 platform: Platform,
                 config: DesConfig | None = None) -> DesResult:
    """Execute ``mapping`` event-by-event and measure rates and latencies."""
    config = config if config is not None else DesConfig()
    mapping.validate_against(workload, platform.num_components)
    stages = _build_stages(workload, mapping, platform,
                           config.apply_interference)
    n_dnns = len(workload)
    by_component: dict[int, list[_Stage]] = {}
    for stage in stages:
        by_component.setdefault(stage.component, []).append(stage)

    busy = {c: False for c in by_component}
    virtual = {c: 0.0 for c in by_component}    # SFQ virtual time
    heap: list[tuple[float, int, int, _Stage]] = []
    seq = itertools.count()

    def dispatch(component: int, now: float) -> None:
        if busy[component]:
            return
        ready = [s for s in by_component[component]
                 if s.eligible(config.buffer_depth)]
        if not ready:
            return
        stage = min(ready, key=lambda s: (max(s.finish_tag,
                                              virtual[component]),
                                          s.dnn))
        start_tag = max(stage.finish_tag, virtual[component])
        virtual[component] = start_tag
        stage.finish_tag = start_tag + stage.service_s / stage.weight
        stage.started += 1
        if stage.prev is None:
            stage.start_times.append(now)
        busy[component] = True
        heapq.heappush(heap, (now + stage.service_s, next(seq),
                              component, stage))

    completions = np.zeros(n_dnns, dtype=np.int64)
    measured = np.zeros(n_dnns, dtype=np.int64)
    latencies: dict[int, list[float]] = {i: [] for i in range(n_dnns)}
    heads = {s.dnn: _head_of(s) for s in stages}

    for component in by_component:
        dispatch(component, 0.0)

    now = 0.0
    while heap:
        now, _, component, stage = heapq.heappop(heap)
        if now > config.horizon_s:
            break
        stage.done += 1
        busy[component] = False
        if stage.next is None:
            index = stage.done - 1
            completions[stage.dnn] += 1
            admitted = heads[stage.dnn].start_times[index]
            if now >= config.warmup_s:
                measured[stage.dnn] += 1
                latencies[stage.dnn].append(now - admitted)
        for c in by_component:
            dispatch(c, now)

    window = config.horizon_s - config.warmup_s
    rates = measured / window
    return DesResult(
        workload_names=tuple(m.name for m in workload),
        rates=rates,
        completions=completions,
        latencies={workload[i].name: np.asarray(latencies[i])
                   for i in range(n_dnns)},
        measured_seconds=window,
    )


def _head_of(stage: _Stage) -> _Stage:
    while stage.prev is not None:
        stage = stage.prev
    return stage
