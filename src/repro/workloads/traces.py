"""Stochastic edge-data-center traces.

The paper's introduction motivates RankMap with edge data centers "where
multiple users submit DNN queries".  This module generates that setting as
a dynamic-scenario event stream: DNN sessions arrive as a Poisson process,
run for an exponentially distributed duration, and leave.  Feeding the
trace to :func:`repro.sim.run_dynamic_scenario` with any manager yields the
timeline the SLA report (:mod:`repro.workloads.sla`) scores.

Two consumers read these traces:

* :func:`poisson_trace` applies ``TraceConfig.max_concurrent`` as a blind
  admission cap and emits a ready-to-replay event list; arrivals the cap
  (or pool exhaustion) turns away leave no trace.
* :func:`sample_session_requests` emits the *uncapped* raw demand — every
  would-be session with its arrival time, duration and SLA tier — for the
  online serving loop (:mod:`repro.serve`), whose admission controller
  makes its own accept/queue/reject decision per request.
  :func:`iter_session_requests` is the same sampler as a generator: one
  request at a time, identical rng consumption, so million-session traces
  stream straight into :func:`repro.serve.serve_trace` without ever being
  materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..sim.dynamic import ScenarioEvent, arrival, departure
from ..zoo.registry import MODEL_POOL, get_model

__all__ = [
    "TraceConfig",
    "SessionRequest",
    "poisson_trace",
    "check_tier_shift_prob",
    "iter_session_requests",
    "sample_session_requests",
    "trace_peak_concurrency",
    "fleet_demand_config",
    "split_session_requests",
]

#: Default SLA-tier rotation for sampled session requests (highest first,
#: matching :data:`repro.workloads.sla.SLA_TIERS`).
DEFAULT_TIER_CYCLE: tuple[str, ...] = ("gold", "silver", "bronze")


@dataclass(frozen=True)
class TraceConfig:
    """Shape of a stochastic arrival trace.

    ``max_concurrent`` is an admission-control cap, not a queue: arrivals
    that would exceed it are dropped, mirroring an edge node that rejects
    queries beyond its configured multi-tenancy level (the paper evaluates
    up to 5 concurrent DNNs).
    """

    horizon_s: float = 600.0
    arrival_rate_per_s: float = 1.0 / 60.0   # one new session per minute
    mean_session_s: float = 180.0
    max_concurrent: int = 5
    pool: tuple[str, ...] = MODEL_POOL

    def __post_init__(self):
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival_rate_per_s must be positive")
        if self.mean_session_s <= 0:
            raise ValueError("mean_session_s must be positive")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if not self.pool:
            raise ValueError("pool must not be empty")


@dataclass(frozen=True)
class SessionRequest:
    """One raw (uncapped) session request for the online serving loop.

    ``tier`` names an SLA class (:mod:`repro.workloads.sla`).  An optional
    ``tier_shift`` models a mid-session priority change — ``(offset_s,
    new_tier)`` relative to the session's admission time — the online
    analogue of the paper's Fig. 10 user priority shifts.
    """

    session_id: int
    arrival_s: float
    duration_s: float
    tier: str
    tier_shift: tuple[float, str] | None = None


def poisson_trace(rng: np.random.Generator,
                  config: TraceConfig | None = None) -> list[ScenarioEvent]:
    """Sample one session trace as a sorted scenario event list.

    Each admitted session contributes an arrival and (if its exponential
    duration ends before the horizon) a departure.  Model names are drawn
    uniformly from the pool *without* replacement among concurrently active
    sessions — the dynamic-scenario engine identifies DNNs by name, so two
    live sessions must not share one; an arrival the cap or a used-up
    pool turns away is dropped.
    """
    config = config if config is not None else TraceConfig()
    events: list[ScenarioEvent] = []
    active: dict[str, float] = {}    # name -> departure time
    t = 0.0
    while True:
        t += rng.exponential(1.0 / config.arrival_rate_per_s)
        if t >= config.horizon_s:
            break
        active = {n: end for n, end in active.items() if end > t}
        if len(active) >= config.max_concurrent:
            continue
        free = [n for n in config.pool if n not in active]
        if not free:
            continue
        name = str(rng.choice(free))
        end = t + rng.exponential(config.mean_session_s)
        events.append(arrival(t, get_model(name)))
        if end < config.horizon_s:
            events.append(departure(end, get_model(name)))
        active[name] = end
    return sorted(events, key=lambda e: e.time)


def check_tier_shift_prob(tier_shift_prob: float) -> None:
    """Raise ``ValueError`` unless ``tier_shift_prob`` is a probability:
    the rule :func:`iter_session_requests` applies, which scenario specs
    check when they are built."""
    if not 0.0 <= tier_shift_prob <= 1.0:
        raise ValueError("tier_shift_prob must be within [0, 1]")


def iter_session_requests(
        rng: np.random.Generator,
        config: TraceConfig | None = None,
        tiers: tuple[str, ...] = DEFAULT_TIER_CYCLE,
        tier_shift_prob: float = 0.0,
        shift_tier: str = "gold",
):
    """Stream the raw Poisson session demand, one request at a time.

    The generator form of :func:`sample_session_requests`: requests are
    yielded in arrival order as they are drawn, so a multi-day trace with
    millions of sessions never exists in memory — the serving loop pulls
    the next arrival only when the event clock reaches it.  Rng
    consumption is identical to the list sampler (which is literally
    ``list(iter_session_requests(...))``), so the two forms produce the
    same trace for the same ``(rng state, config)``.

    Tiers rotate through ``tiers`` in arrival order (deterministic and
    balanced, like :func:`repro.workloads.sla.assign_tiers`).  Tier-shift
    semantics: whenever ``tier_shift_prob > 0`` every session consumes
    one uniform draw, but only a session whose tier *differs* from
    ``shift_tier`` can carry a shift — with probability
    ``tier_shift_prob`` it shifts to ``shift_tier`` at a uniform point of
    its duration, while a session already in ``shift_tier`` never shifts
    (there is nothing to shift to).  The draw-then-check order means the
    no-op draw of a ``shift_tier`` session still advances the rng — part
    of the determinism contract, pinned by the trace tests.

    Arguments are validated eagerly (before the first request is drawn),
    so a bad config raises at call time, not at first iteration.
    """
    config = config if config is not None else TraceConfig()
    if not tiers:
        raise ValueError("tiers must not be empty")
    check_tier_shift_prob(tier_shift_prob)

    def generate():
        t = 0.0
        index = 0
        while True:
            t += rng.exponential(1.0 / config.arrival_rate_per_s)
            if t >= config.horizon_s:
                return
            duration = rng.exponential(config.mean_session_s)
            tier = tiers[index % len(tiers)]
            shift = None
            if tier_shift_prob > 0.0 and rng.random() < tier_shift_prob \
                    and tier != shift_tier:
                shift = (float(rng.uniform(0.2, 0.8) * duration),
                         shift_tier)
            yield SessionRequest(
                session_id=index, arrival_s=float(t),
                duration_s=float(duration), tier=tier, tier_shift=shift,
            )
            index += 1

    return generate()


def sample_session_requests(
        rng: np.random.Generator,
        config: TraceConfig | None = None,
        tiers: tuple[str, ...] = DEFAULT_TIER_CYCLE,
        tier_shift_prob: float = 0.0,
        shift_tier: str = "gold",
) -> list[SessionRequest]:
    """Sample the raw Poisson session demand, with no admission applied.

    Every would-be session is returned — the serving loop's admission
    controller decides accept/queue/reject per request.  The materialised
    form of :func:`iter_session_requests` (see there for the tier
    rotation and the exact tier-shift/rng-consumption semantics); prefer
    the generator for long traces.
    """
    return list(iter_session_requests(rng, config, tiers=tiers,
                                      tier_shift_prob=tier_shift_prob,
                                      shift_tier=shift_tier))


def fleet_demand_config(config: TraceConfig, num_nodes: int) -> TraceConfig:
    """Scale a single-node trace shape to the aggregate demand of a fleet.

    Superposing ``num_nodes`` independent Poisson processes is itself a
    Poisson process with the summed rate, so the cluster-level demand a
    :mod:`repro.serve.fleet` dispatcher splits back up is simply the
    per-node config with ``arrival_rate_per_s`` (and the blind
    ``max_concurrent`` cap, for the capped samplers) multiplied by the
    node count.  Session durations and the model pool are per-session
    properties and stay untouched.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    return replace(config,
                   arrival_rate_per_s=config.arrival_rate_per_s * num_nodes,
                   max_concurrent=config.max_concurrent * num_nodes)


def split_session_requests(requests: list[SessionRequest],
                           num_nodes: int) -> list[list[SessionRequest]]:
    """Shard raw demand across ``num_nodes`` statically, round-robin.

    The dispatcher-less baseline: session ``i`` (in arrival order) lands
    on node ``i % num_nodes`` regardless of tier or load — what a DNS-
    style static splitter would do.  The fleet dispatcher's routing
    policies (:mod:`repro.serve.fleet.routing`) are measured against this
    in the docs and examples.  Every request appears in exactly one
    shard; shards preserve arrival order.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be at least 1")
    shards: list[list[SessionRequest]] = [[] for _ in range(num_nodes)]
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.session_id))
    for index, request in enumerate(ordered):
        shards[index % num_nodes].append(request)
    return shards


def trace_peak_concurrency(events: list[ScenarioEvent]) -> int:
    """Largest number of simultaneously active DNNs in a trace."""
    peak = 0
    live = 0
    for event in sorted(events, key=lambda e: (e.time, e.kind != "departure")):
        if event.kind == "arrival":
            live += 1
            peak = max(peak, live)
        elif event.kind == "departure":
            live -= 1
    return peak
