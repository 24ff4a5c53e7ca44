"""Property-based tests for the serve/fleet subsystem invariants.

Three families of invariants, swept over randomized Poisson traces and
tier mixes (derandomized, so tier-1 runs are reproducible bit for bit):

* **Session conservation** — every session request the loop observes ends
  in exactly one terminal state: ``arrivals == served + serving +
  rejected + abandoned + evicted + queued_at_horizon + out_of_horizon``,
  for every preemption policy, on the single-node and the fleet path.
* **No-starvation structure** — under ``evict_lowest_tier`` a gold
  session only ever waits (or is denied) when the node is already full
  of *gold* sessions: anything lower-tier would have been preempted.
* **Monotonicity** — enabling ``evict_lowest_tier`` never increases the
  gold tier-violation fraction (waiting counts as violation time: a
  queued session's potential is 0).  Strict per-trace monotonicity is a
  property of the moderately saturated regime swept here; the aggregate
  regression below additionally pins the mean improvement and the
  acceptance case (strict drop under saturation with conservation).

The serving loop runs over the trivially cheap GPU-only manager so each
hypothesis example costs one or two solver-cached ``serve_trace`` calls,
not an MCTS search.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GpuBaseline
from repro.hw import orange_pi_5
from repro.mapping import gpu_only_mapping
from repro.runner import (PLATFORM_SPECS, DynamicScenario, FleetScenario,
                          ScenarioRunner, build_manager,
                          sample_fleet_requests)
from repro.serve import (AdmissionConfig, FullReplan, ReplanOutcome,
                         ReplanPolicy, ServeConfig, build_replan_policy,
                         serve_trace)
from repro.serve.fleet import FleetNode, NodeSpec, node_speed, serve_fleet
from repro.sim import (EvaluationCache, MappingDecision, arrival, departure,
                       run_dynamic_scenario)
from repro.workloads import (SessionRequest, TraceConfig,
                             iter_session_requests, sample_session_requests)
from repro.zoo import get_model
from tests.oracles.serve_reference import serve_trace_reference

PLATFORM = orange_pi_5()
POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet",
        "resnet12", "mobilenet")

#: One evaluation cache for the whole module: reports are bit-identical
#: warm or cold (regression-tested in tests/test_serve.py), so sharing
#: only cuts the suite's wall clock.
CACHE = EvaluationCache(PLATFORM)

TERMINAL_STATES = {"served", "serving", "rejected", "abandoned",
                   "evicted", "queued", "out_of_horizon"}

TIER_MIXES = (("gold", "silver", "bronze"),
              ("gold", "bronze", "bronze"),
              ("bronze", "gold", "silver"),
              ("gold",),
              ("bronze",))


def sample_trace(seed, rate, tiers, horizon=360.0, mean_session=140.0,
                 shift_prob=0.0):
    return sample_session_requests(
        np.random.default_rng(seed),
        TraceConfig(horizon_s=horizon, arrival_rate_per_s=rate,
                    mean_session_s=mean_session, pool=POOL),
        tiers=tiers, tier_shift_prob=shift_prob)


def serve(requests, preemption, capacity=2, queue_limit=6,
          max_wait=120.0, horizon=360.0):
    config = ServeConfig(
        horizon_s=horizon,
        admission=AdmissionConfig(capacity=capacity,
                                  queue_limit=queue_limit,
                                  max_queue_wait_s=max_wait,
                                  preemption=preemption),
        pool=POOL, seed=0)
    return serve_trace(requests, FullReplan(GpuBaseline()), PLATFORM,
                       config, cache=CACHE)


def assert_conserved(report):
    """The session-conservation invariant over one ServeReport."""
    counts = Counter(s.outcome for s in report.sessions)
    assert set(counts) <= TERMINAL_STATES
    assert sum(counts.values()) == report.arrivals
    assert (counts["served"] + counts["serving"] + counts["rejected"]
            + counts["abandoned"] + counts["evicted"] + counts["queued"]
            + counts["out_of_horizon"]) == report.arrivals
    # Admission implies one of the admitted terminal states, and the
    # report's counters agree with the per-session records.
    assert report.admitted == (counts["served"] + counts["serving"]
                               + counts["evicted"])
    assert report.evicted == counts["evicted"]
    assert report.resumptions <= report.evictions
    for s in report.sessions:
        assert (s.admitted_s is not None) == (
            s.outcome in ("served", "serving", "evicted"))


# ----------------------------------------------------------- conservation
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       rate=st.sampled_from([1 / 6, 1 / 10, 1 / 15, 1 / 20]),
       capacity=st.integers(1, 3),
       tiers=st.sampled_from(TIER_MIXES),
       preemption=st.sampled_from(["none", "evict_lowest_tier",
                                   "renegotiate"]),
       shift_prob=st.sampled_from([0.0, 0.3]),
       max_wait=st.sampled_from([30.0, 120.0]))
def test_session_conservation_single_node(seed, rate, capacity, tiers,
                                          preemption, shift_prob, max_wait):
    requests = sample_trace(seed, rate, tiers, shift_prob=shift_prob)
    report = serve(requests, preemption, capacity=capacity,
                   max_wait=max_wait)
    assert report.arrivals == len(requests)
    assert_conserved(report)
    if preemption == "none":
        assert report.evictions == 0 and report.demotions == 0
    if preemption == "renegotiate":
        assert report.evictions == 0       # renegotiation never suspends
    # A session that is gold from birth can never be preempted.  (Keying
    # on the final tier would be wrong: a silver session evicted before
    # its pending gold tier-shift fires legitimately ends gold with an
    # eviction on record.)
    born_gold = {r.session_id for r in requests if r.tier == "gold"}
    assert all(s.evictions == 0 and s.demotions == 0
               for s in report.sessions if s.session_id in born_gold)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       preemption=st.sampled_from(["none", "evict_lowest_tier",
                                   "renegotiate"]),
       routing=st.sampled_from(["round_robin", "tier_affinity_preempt"]),
       fail=st.booleans())
def test_session_conservation_fleet(seed, preemption, routing, fail):
    """Fleet path: per-node conservation plus the fleet arrival ledger."""
    nodes = tuple(DynamicScenario(
        name=f"node{i}", manager="baseline", policy="full",
        platform=("orange_pi_5" if i == 0 else "jetson_class"),
        seed=i, pool=POOL, capacity=2, queue_limit=6,
        max_queue_wait_s=120.0, preemption=preemption) for i in range(2))
    fleet = FleetScenario(
        name="prop", nodes=nodes, routing=routing, seed=seed,
        horizon_s=240.0, arrival_rate_per_s=1 / 6, mean_session_s=100.0,
        fail_at=(((0, 120.0),) if fail else ()))
    report = ScenarioRunner(max_workers=1).run_fleet([fleet])[0].report
    for node in report.nodes:
        assert_conserved(node.report)
    # Distinct-session ledger: routed sessions minus re-dispatch double
    # counting plus the never-routed demand covers every arrival, and the
    # per-tier rollup partitions the routed distinct sessions.
    assert report.arrivals == sum(n.routed for n in report.nodes) \
        - report.re_dispatched + report.lost + report.out_of_horizon
    tiers = report.tier_outcomes()
    assert sum(row["arrivals"] for row in tiers.values()) \
        == report.arrivals - report.lost - report.out_of_horizon
    assert 0.0 < report.eviction_fairness <= 1.0


# ---------------------------------------------------------- no starvation
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 39),
       rate=st.sampled_from([1 / 10, 1 / 15, 1 / 20]),
       capacity=st.integers(2, 3),
       tiers=st.sampled_from(TIER_MIXES[:2]))
def test_gold_only_blocked_by_gold_under_eviction(seed, rate, capacity,
                                                  tiers):
    """Structural no-starvation: with ``evict_lowest_tier``, a gold
    session that waited or was denied must have arrived while at least
    ``capacity`` *gold* sessions were being served — any lower-tier
    resident would have been evicted for it instead."""
    requests = sample_trace(seed, rate, tiers)
    report = serve(requests, "evict_lowest_tier", capacity=capacity)
    gold = [s for s in report.sessions if s.tier == "gold"]
    intervals = [(s.admitted_s,
                  s.departed_s if s.departed_s is not None
                  else report.horizon_s)
                 for s in gold if s.admitted_s is not None]
    for s in gold:
        if s.outcome == "out_of_horizon":
            continue
        waited = s.queue_wait_s > 0 or s.outcome in ("rejected",
                                                     "abandoned", "queued")
        if not waited:
            continue
        live_gold = sum(1 for (a, d) in intervals
                        if a <= s.arrival_s < d and a != s.admitted_s)
        assert live_gold >= capacity, \
            f"gold session {s.session_id} starved behind non-gold traffic"


# ----------------------------------------------------------- monotonicity
@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 39),
       tiers=st.sampled_from(TIER_MIXES[:2]))
def test_gold_violation_monotone_under_eviction(seed, tiers):
    """Enabling eviction never increases the gold violation fraction
    (waiting time counts as violation time) on the moderately saturated
    sweep regime — arrival rate 1/10 s against capacity 2."""
    requests = sample_trace(seed, 1 / 10, tiers)
    baseline = serve(requests, "none")
    evicting = serve(requests, "evict_lowest_tier")
    assert_conserved(evicting)
    assert evicting.tier_violation_fraction("gold") \
        <= baseline.tier_violation_fraction("gold") + 1e-9


def test_gold_violation_drops_in_aggregate():
    """The sweep-level regression behind the acceptance criterion: over
    a fixed randomized batch of saturating traces the mean gold
    violation fraction drops clearly, and evictions do the work."""
    deltas = []
    evictions = 0
    for seed in range(12):
        requests = sample_trace(seed, 1 / 10, ("gold", "silver", "bronze"))
        baseline = serve(requests, "none")
        evicting = serve(requests, "evict_lowest_tier")
        evictions += evicting.evictions
        deltas.append(baseline.tier_violation_fraction("gold")
                      - evicting.tier_violation_fraction("gold"))
    assert evictions > 0
    assert float(np.mean(deltas)) > 0.05


def test_acceptance_saturating_trace_strict_gold_improvement():
    """Acceptance: under a saturating trace, ``evict_lowest_tier`` yields
    *strictly* lower gold violation than no-preempt while conservation
    holds and the eviction-fairness metric stays a valid bound."""
    requests = sample_trace(60, 1 / 10, ("gold", "bronze", "bronze"))
    baseline = serve(requests, "none")
    evicting = serve(requests, "evict_lowest_tier")
    assert_conserved(baseline)
    assert_conserved(evicting)
    assert evicting.evictions > 0
    assert evicting.tier_violation_fraction("gold") \
        < baseline.tier_violation_fraction("gold")
    assert 0.0 < evicting.eviction_fairness <= 1.0
    # Gold improves by converting wait into service, not by admitting
    # less gold demand.
    gold_served = sum(s.served_seconds for s in evicting.sessions
                      if s.tier == "gold")
    gold_served_base = sum(s.served_seconds for s in baseline.sessions
                           if s.tier == "gold")
    assert gold_served >= gold_served_base


def test_renegotiation_spares_bronze_sessions():
    """Renegotiation's side of the trade-off: no session is ever lost to
    eviction (eviction fairness stays 1.0), at the price of demoted
    tiers and overcommit contention."""
    requests = sample_trace(60, 1 / 10, ("gold", "silver", "bronze"))
    renegotiated = serve(requests, "renegotiate")
    assert_conserved(renegotiated)
    assert renegotiated.demotions > 0
    assert renegotiated.evicted == 0
    assert renegotiated.eviction_fairness == 1.0


# ------------------------------------------------------------ bit identity
# The streaming serving loop (generator arrivals, a waiting room keyed at
# enqueue, scheduled queue timeouts, per-record float accounting over
# precomputed resident rows) must be observationally *identical* to the
# pre-streaming loop kept in ``tests/oracles/serve_reference.py`` — same
# event total order, same rng consumption, last-ulp-equal float
# accounting.  These properties pin that equivalence across randomized
# traces and every preemption policy; the deep-room case below drives the
# waiting room past a hundred stays.

@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       rate=st.sampled_from([1 / 6, 1 / 10, 1 / 20]),
       capacity=st.integers(1, 3),
       tiers=st.sampled_from(TIER_MIXES),
       preemption=st.sampled_from(["none", "evict_lowest_tier",
                                   "renegotiate"]),
       shift_prob=st.sampled_from([0.0, 0.3]),
       max_wait=st.sampled_from([30.0, 120.0]))
def test_streaming_loop_bit_identical_to_reference(seed, rate, capacity,
                                                   tiers, preemption,
                                                   shift_prob, max_wait):
    """Streaming loop fed by a generator == reference loop fed the list,
    compared as whole reports (sessions, timeline, counters — dataclass
    equality is exact float equality, no tolerance)."""
    requests = sample_trace(seed, rate, tiers, shift_prob=shift_prob)
    config = ServeConfig(
        horizon_s=360.0,
        admission=AdmissionConfig(capacity=capacity, queue_limit=6,
                                  max_queue_wait_s=max_wait,
                                  preemption=preemption),
        pool=POOL, seed=0)
    streamed = serve_trace((r for r in requests), FullReplan(GpuBaseline()),
                           PLATFORM, config, cache=CACHE)
    reference = serve_trace_reference(requests, FullReplan(GpuBaseline()),
                                      PLATFORM, config, cache=CACHE)
    assert streamed == reference


def test_streamed_sampler_end_to_end_matches_reference():
    """The full streaming pipeline — ``iter_session_requests`` generator
    straight into ``serve_trace``, trace never materialised — equals the
    materialise-everything reference pipeline."""
    trace = TraceConfig(horizon_s=360.0, arrival_rate_per_s=1 / 8,
                        mean_session_s=120.0, pool=POOL)
    config = ServeConfig(
        horizon_s=360.0,
        admission=AdmissionConfig(capacity=2, queue_limit=6,
                                  max_queue_wait_s=60.0,
                                  preemption="evict_lowest_tier"),
        pool=POOL, seed=0)
    stream = iter_session_requests(np.random.default_rng(1234), trace,
                                   tier_shift_prob=0.3)
    requests = sample_session_requests(np.random.default_rng(1234), trace,
                                       tier_shift_prob=0.3)
    streamed = serve_trace(stream, FullReplan(GpuBaseline()), PLATFORM,
                           config, cache=CACHE)
    reference = serve_trace_reference(requests, FullReplan(GpuBaseline()),
                                      PLATFORM, config, cache=CACHE)
    assert streamed == reference


@pytest.mark.parametrize("preemption",
                         ["none", "evict_lowest_tier", "renegotiate"])
def test_deep_waiting_room_matches_reference(preemption):
    """A saturated node whose waiting room holds about a hundred stays —
    the randomized traces above allow six fresh ones — drains, times
    out, evicts or demotes exactly as the reference loop does."""
    horizon = 3000.0
    requests = sample_trace(5, 1 / 2, ("gold", "silver", "bronze"),
                            horizon=horizon, mean_session=300.0,
                            shift_prob=0.3)
    config = ServeConfig(
        horizon_s=horizon,
        admission=AdmissionConfig(capacity=3, queue_limit=100,
                                  max_queue_wait_s=400.0,
                                  preemption=preemption),
        pool=POOL, seed=0)
    streamed = serve_trace((r for r in requests), FullReplan(GpuBaseline()),
                           PLATFORM, config, cache=CACHE)
    reference = serve_trace_reference(requests, FullReplan(GpuBaseline()),
                                      PLATFORM, config, cache=CACHE)
    assert streamed == reference
    counts = Counter(s.outcome for s in streamed.sessions)
    # Every stay still queued at the horizon is in the room at once.
    assert counts["queued"] > 64
    assert counts["abandoned"] > 0                       # timeouts
    assert any(s.admitted_s is not None and s.queue_wait_s > 0
               for s in streamed.sessions)               # drains
    if preemption == "evict_lowest_tier":
        assert streamed.evictions > 0
    if preemption == "renegotiate":
        assert sum(s.demotions for s in streamed.sessions) > 0


@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       preemption=st.sampled_from(["none", "evict_lowest_tier"]),
       fail=st.booleans())
def test_fleet_report_invariant_to_worker_count(seed, preemption, fail):
    """The fleet path stays bit-identical whether nodes run inline in one
    worker or fan across a process pool — the streaming loop introduces
    no cross-process nondeterminism."""
    nodes = tuple(DynamicScenario(
        name=f"node{i}", manager="baseline", policy="full",
        platform=("orange_pi_5" if i == 0 else "jetson_class"),
        seed=i, pool=POOL, capacity=2, queue_limit=6,
        max_queue_wait_s=120.0, preemption=preemption) for i in range(2))
    fleet = FleetScenario(
        name="prop-workers", nodes=nodes, routing="round_robin", seed=seed,
        horizon_s=240.0, arrival_rate_per_s=1 / 6, mean_session_s=100.0,
        fail_at=(((0, 120.0),) if fail else ()))
    solo = ScenarioRunner(max_workers=1).run_fleet([fleet])[0].report
    pooled = ScenarioRunner(max_workers=2).run_fleet([fleet])[0].report
    assert solo == pooled


def _inline_nodes(fleet):
    """The fleet's nodes built in this process, the way a pool worker
    builds each node from its spec."""
    fail_at = dict(fleet.fail_at)
    nodes = []
    for index, spec in enumerate(fleet.nodes):
        platform = PLATFORM_SPECS[spec.platform]()
        cache = EvaluationCache(platform)
        policy = build_replan_policy(spec.policy,
                                     build_manager(spec, platform, cache))
        config = ServeConfig(
            horizon_s=fleet.horizon_s,
            admission=AdmissionConfig(
                capacity=spec.capacity, queue_limit=spec.queue_limit,
                max_queue_wait_s=spec.max_queue_wait_s,
                preemption=spec.preemption),
            pool=spec.pool, seed=spec.seed)
        nodes.append(FleetNode(
            spec=NodeSpec(name=spec.name, capacity=spec.capacity,
                          speed=node_speed(platform, spec.pool),
                          fail_at_s=fail_at.get(index)),
            platform=platform, policy=policy, config=config, cache=cache))
    return nodes


@settings(max_examples=16, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       rounds=st.integers(0, 2),
       policy=st.sampled_from(["full", "cache"]),
       manager=st.sampled_from(["baseline", "omniboost"]),
       fail=st.booleans())
def test_inline_fleet_equals_pooled_fleet(seed, rounds, policy, manager,
                                          fail):
    """``serve_fleet`` on nodes built in-process returns the report
    ``ScenarioRunner.run_fleet`` builds from the same spec, feedback
    rounds included: earlier rounds leave no plan-cache entries or
    planner state behind on the inline nodes, as pool workers rebuild
    every round from the spec."""
    nodes = tuple(DynamicScenario(
        name=f"node{i}", manager=manager, policy=policy,
        platform=("orange_pi_5" if i == 0 else "jetson_class"),
        seed=i, pool=POOL[:4], capacity=2, queue_limit=4,
        max_queue_wait_s=60.0, search_iterations=3, search_rollouts=1)
        for i in range(2))
    fleet = FleetScenario(
        name="inline-vs-pool", nodes=nodes, routing="pressure_feedback",
        seed=seed, horizon_s=200.0, arrival_rate_per_s=1 / 10,
        mean_session_s=80.0, feedback_rounds=rounds,
        fail_at=(((1, 110.0),) if fail else ()))
    pooled = ScenarioRunner(max_workers=1).run_fleet([fleet])[0].report
    inline = serve_fleet(sample_fleet_requests(fleet), _inline_nodes(fleet),
                         fleet.routing, fleet.horizon_s,
                         feedback_rounds=rounds)
    assert inline == pooled


# ------------------------------------------------------- one event core
class _FixedLatencyGpu(ReplanPolicy):
    """GPU-only plans at a fixed modeled decision latency."""

    name = "fixed"

    def __init__(self, seconds):
        self.seconds = seconds

    def replan(self, workload, priorities, incumbent):
        return ReplanOutcome(gpu_only_mapping(workload), self.seconds,
                             "full")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       count=st.integers(1, len(POOL)),
       latency=st.sampled_from([0.0, 2.0, 20.0, 200.0]),
       snap=st.sampled_from([0.0, 20.0]))
def test_serve_trace_and_replay_share_one_timeline(seed, count, latency,
                                                   snap):
    """``serve_trace`` and ``run_dynamic_scenario`` run one event core.

    A trace whose every request is admitted on arrival (no more requests
    than pool models or slots) is served with a fixed-latency GPU-only
    policy; its sessions, rebuilt as arrivals at each request's arrival
    time and departures at ``admitted_s + duration_s``, replay through
    ``run_dynamic_scenario`` with the same latency to the same timeline,
    segment for segment.  ``snap`` puts times on a grid so that events
    coincide."""
    horizon = 360.0
    rng = np.random.default_rng(seed)
    arrivals = rng.uniform(0.0, horizon, count)
    durations = rng.uniform(10.0, 300.0, count)
    if snap:
        arrivals = np.floor(arrivals / snap) * snap
        durations = np.ceil(durations / snap) * snap
    requests = [SessionRequest(i, float(a), float(d), "gold")
                for i, (a, d) in enumerate(zip(arrivals, durations))]
    config = ServeConfig(
        horizon_s=horizon,
        admission=AdmissionConfig(capacity=len(POOL)), pool=POOL, seed=seed)
    report = serve_trace(requests, _FixedLatencyGpu(latency), PLATFORM,
                         config, cache=CACHE)
    assert all(s.queue_wait_s == 0.0 and s.admitted_s is not None
               for s in report.sessions)

    # Same-time order of the serving loop: departures, then arrivals by
    # (arrival_s, session_id).
    events = []
    for req, s in sorted(zip(requests, report.sessions),
                         key=lambda pair: (pair[0].arrival_s,
                                           pair[0].session_id)):
        model = get_model(s.model)
        events.append((req.arrival_s, 1, arrival(req.arrival_s, model)))
        end = s.admitted_s + req.duration_s
        events.append((end, 0, departure(end, model)))
    events.sort(key=lambda item: item[:2])

    def planner(workload, priorities):
        return MappingDecision(gpu_only_mapping(workload), latency)

    timeline = run_dynamic_scenario([e for _, _, e in events], planner,
                                    PLATFORM, horizon)
    assert timeline.segments == report.timeline.segments
