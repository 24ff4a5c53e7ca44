"""Tests for the online serving subsystem (admission, replan, loop)."""

import numpy as np
import pytest

from repro.core import OraclePredictor, RankMap, RankMapConfig
from repro.hw import orange_pi_5
from repro.mapping import gpu_only_mapping
from repro.search import MCTSConfig
from repro.serve import (
    ADMIT,
    PREEMPT,
    QUEUE,
    REJECT,
    AdmissionConfig,
    AdmissionController,
    FullReplan,
    LiveView,
    PlanCacheReplan,
    ReplanOutcome,
    ReplanPolicy,
    ServeConfig,
    WarmStartReplan,
    build_preemption_policy,
    build_replan_policy,
    serve_trace,
)
from repro.sim import EvaluationCache, simulate
from repro.workloads import SessionRequest, TraceConfig, sample_session_requests
from repro.zoo import get_model

PLATFORM = orange_pi_5()
POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")

SMALL_MCTS = MCTSConfig(iterations=8, rollouts_per_leaf=2)


def rankmap(cache=None, mode="dynamic"):
    return RankMap(PLATFORM, OraclePredictor(PLATFORM, cache=cache),
                   RankMapConfig(mode=mode, mcts=SMALL_MCTS))


def request(sid, arrival, duration, tier="gold", shift=None):
    return SessionRequest(session_id=sid, arrival_s=arrival,
                          duration_s=duration, tier=tier, tier_shift=shift)


def serve_config(capacity=2, queue_limit=2, max_wait=100.0, horizon=400.0,
                 seed=0, preemption="none"):
    return ServeConfig(
        horizon_s=horizon,
        admission=AdmissionConfig(capacity=capacity, queue_limit=queue_limit,
                                  max_queue_wait_s=max_wait,
                                  preemption=preemption),
        pool=POOL, seed=seed)


class FixedLatencyGpu(ReplanPolicy):
    """GPU-only plans at a fixed modeled decision latency."""

    name = "fixed"

    def __init__(self, seconds):
        self.seconds = seconds

    def replan(self, workload, priorities, incumbent):
        return ReplanOutcome(gpu_only_mapping(workload), self.seconds,
                             "full")


def live_view(name, sid, tier, priority, admitted=0.0, served=0.0):
    return LiveView(name=name, session_id=sid, tier=tier,
                    priority=priority, admitted_s=admitted,
                    served_s=served)


# ------------------------------------------------------------- admission
class TestAdmissionController:
    def test_admits_below_capacity(self):
        c = AdmissionController(AdmissionConfig(capacity=2))
        assert c.decide_with_plan("bronze", 1, 0, can_place=True)[0] == ADMIT

    def test_queues_high_tier_at_capacity(self):
        c = AdmissionController(AdmissionConfig(capacity=2, queue_limit=4))
        assert c.decide_with_plan("gold", 2, 0, can_place=True)[0] == QUEUE
        assert c.decide_with_plan("silver", 2, 0, can_place=True)[0] == QUEUE

    def test_rejects_low_tier_at_capacity(self):
        c = AdmissionController(AdmissionConfig(capacity=2))
        assert c.decide_with_plan("bronze", 2, 0,
                                  can_place=True)[0] == REJECT

    def test_rejects_when_queue_full(self):
        c = AdmissionController(AdmissionConfig(capacity=1, queue_limit=1))
        assert c.decide_with_plan("gold", 1, 1, can_place=True)[0] == REJECT

    def test_pool_exhaustion_blocks_placement(self):
        c = AdmissionController(AdmissionConfig(capacity=8, queue_limit=2))
        assert c.decide_with_plan("gold", 3, 0, can_place=False)[0] == QUEUE

    def test_unknown_tier_rejected(self):
        c = AdmissionController()
        with pytest.raises(ValueError, match="unknown SLA tier"):
            c.decide_with_plan("platinum", 0, 0, can_place=True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(capacity=0)
        with pytest.raises(ValueError):
            AdmissionConfig(queue_limit=-1)
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_wait_s=0.0)

    @pytest.mark.parametrize("capacity", [2.5, 2.0, True])
    def test_capacity_must_be_int(self, capacity):
        """``active_count < 2.5`` would admit 3 sessions while the fleet
        dispatcher prices occupancy against 2.5 slots."""
        with pytest.raises(ValueError, match="capacity must be an int"):
            AdmissionConfig(capacity=capacity)

    def test_queue_drain_order_tier_then_fifo(self):
        c = AdmissionController()
        keys = [c.queue_order_key("bronze", 1.0, 1),
                c.queue_order_key("gold", 5.0, 2),
                c.queue_order_key("gold", 2.0, 3)]
        assert sorted(keys) == [keys[2], keys[1], keys[0]]


# ---------------------------------------------------------------- replan
class TestReplanPolicies:
    def _incumbent(self, policy, workload):
        first = policy.replan(workload, None, None)
        return (tuple(m.name for m in workload), first.mapping)

    def test_full_replan_matches_manager(self):
        manager = rankmap()
        policy = FullReplan(manager)
        workload = [get_model("alexnet"), get_model("mobilenet_v2")]
        outcome = policy.replan(workload, None, None)
        direct = rankmap().plan(workload)
        assert outcome.kind == "full"
        assert outcome.mapping == direct.mapping
        assert outcome.decision_seconds == direct.decision_seconds

    def test_warm_start_is_cheaper_than_full(self):
        manager = rankmap()
        policy = WarmStartReplan(manager)
        resident = [get_model("alexnet"), get_model("squeezenet")]
        incumbent = self._incumbent(policy, resident)
        workload = resident + [get_model("mobilenet_v2")]
        warm = policy.replan(workload, None, incumbent)
        full = FullReplan(rankmap()).replan(workload, None, None)
        assert warm.kind in ("warm", "warm_fallback")
        assert warm.decision_seconds < full.decision_seconds

    def test_warm_start_keeps_resident_assignments(self):
        manager = rankmap()
        policy = WarmStartReplan(manager)
        resident = [get_model("alexnet"), get_model("squeezenet")]
        incumbent_names, incumbent_mapping = self._incumbent(policy, resident)
        workload = resident + [get_model("mobilenet_v2")]
        outcome = policy.replan(workload, None,
                                (incumbent_names, incumbent_mapping))
        if outcome.kind == "warm":
            assert outcome.mapping.assignments[:2] \
                == incumbent_mapping.assignments
        new_blocks = outcome.mapping.assignments[2]
        assert len(new_blocks) == get_model("mobilenet_v2").num_blocks

    def test_warm_start_requires_rankmap(self):
        from repro.baselines import GpuBaseline

        with pytest.raises(ValueError, match="RankMap"):
            WarmStartReplan(GpuBaseline())

    def test_warm_start_checks_priority_length_like_rankmap(self):
        """A static-mode warm replan resolves priorities through its
        manager, so a wrong-length vector fails with RankMap's check
        before any candidate is scored."""
        policy = WarmStartReplan(rankmap(mode="static"))
        resident = [get_model("alexnet"), get_model("squeezenet")]
        first = policy.replan(resident, np.array([0.6, 0.4]), None)
        workload = resident + [get_model("mobilenet_v2")]
        with pytest.raises(ValueError, match="priority vector must match "
                                             "workload size"):
            policy.replan(workload, np.array([0.6, 0.4]),
                          (("alexnet", "squeezenet"), first.mapping))

    def test_plan_cache_hit_is_free_and_identical(self):
        """Acceptance: cache hits cost nothing and replay the same mapping
        (hence identical steady-state rates) for identical workloads."""
        policy = PlanCacheReplan(FullReplan(rankmap()))
        workload = [get_model("alexnet"), get_model("mobilenet_v2")]
        miss = policy.replan(workload, None, None)
        hit = policy.replan(workload, None, None)
        assert (policy.hits, policy.misses) == (1, 1)
        assert hit.kind == "cache_hit"
        assert hit.decision_seconds == 0.0
        assert hit.mapping == miss.mapping
        miss_rates = simulate(workload, miss.mapping, PLATFORM).rates
        hit_rates = simulate(workload, hit.mapping, PLATFORM).rates
        np.testing.assert_array_equal(hit_rates, miss_rates)

    def test_plan_cache_keyed_on_priorities(self):
        policy = PlanCacheReplan(FullReplan(rankmap(mode="static")))
        workload = [get_model("alexnet"), get_model("mobilenet_v2")]
        policy.replan(workload, np.array([0.7, 0.3]), None)
        out = policy.replan(workload, np.array([0.3, 0.7]), None)
        assert out.kind != "cache_hit"
        assert policy.misses == 2

    def test_unknown_policy_key_rejected(self):
        with pytest.raises(ValueError, match="unknown replan policy"):
            build_replan_policy("nope", rankmap())

    def test_roster_builds_all_policies(self):
        from repro.serve import REPLAN_POLICIES

        for key in REPLAN_POLICIES:
            policy = build_replan_policy(key, rankmap())
            out = policy.replan([get_model("alexnet")], None, None)
            assert out.mapping.num_dnns == 1


# ------------------------------------------------------------------ loop
class TestServeLoop:
    def test_sessions_partition_into_outcomes(self):
        requests = sample_session_requests(
            np.random.default_rng(3),
            TraceConfig(horizon_s=400.0, arrival_rate_per_s=1 / 25,
                        mean_session_s=150.0, pool=POOL))
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config())
        assert report.arrivals == len(requests)
        by_state = {s.outcome for s in report.sessions}
        assert by_state <= {"served", "serving", "rejected", "abandoned",
                            "queued", "out_of_horizon"}
        terminal = (report.admitted + report.rejected + report.abandoned
                    + report.queued_at_horizon + report.out_of_horizon)
        assert terminal == report.arrivals

    def test_queue_admits_what_blind_drop_loses(self):
        # Two gold sessions contend for one slot: the second queues and is
        # admitted when the first departs, instead of being dropped.
        requests = [request(0, 10.0, 100.0), request(1, 20.0, 100.0)]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=1, horizon=400.0))
        second = report.sessions[1]
        assert second.outcome == "served"
        # Enqueued once the first session's planning gap closes; admitted
        # at the first departure (t=110).
        assert 0 < second.queue_wait_s <= 90.0
        assert second.admitted_s == pytest.approx(110.0)
        assert report.waited_in_queue == 1

    def test_bronze_rejected_at_capacity(self):
        requests = [request(0, 10.0, 200.0, tier="gold"),
                    request(1, 20.0, 50.0, tier="bronze")]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=1, horizon=300.0))
        assert report.sessions[1].outcome == "rejected"

    def test_queue_timeout_abandons(self):
        requests = [request(0, 10.0, 500.0), request(1, 20.0, 50.0)]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=1, max_wait=60.0,
                                          horizon=400.0))
        assert report.sessions[1].outcome == "abandoned"
        assert report.sessions[1].queue_wait_s == pytest.approx(60.0)

    def test_gap_time_charged_to_new_arrival(self):
        # The second session arrives while the first runs; the replan's
        # modeled latency shows up as its (and only its) gap time.
        requests = [request(0, 0.0, 390.0), request(1, 100.0, 250.0)]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=2, horizon=400.0))
        first, second = report.sessions
        assert second.gap_seconds > 0
        assert second.gap_seconds < second.served_seconds
        # The resident only stalls for its own initial planning window.
        assert first.gap_seconds < first.served_seconds / 2

    def test_tier_shift_triggers_replan(self):
        requests = [request(0, 0.0, 300.0, tier="bronze",
                            shift=(100.0, "gold"))]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=2, horizon=350.0))
        # initial plan + shift replan
        assert report.replans == 2
        assert report.sessions[0].tier == "gold"

    def test_deterministic_given_seed(self):
        requests = sample_session_requests(
            np.random.default_rng(11),
            TraceConfig(horizon_s=300.0, arrival_rate_per_s=1 / 30,
                        mean_session_s=120.0, pool=POOL))
        a = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                        serve_config())
        b = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                        serve_config())
        assert a == b

    def test_warm_cache_insensitive_to_cache_state(self):
        """A warm evaluation cache changes the wall clock, not the report."""
        requests = sample_session_requests(
            np.random.default_rng(5),
            TraceConfig(horizon_s=300.0, arrival_rate_per_s=1 / 30,
                        mean_session_s=120.0, pool=POOL))
        cold_cache = EvaluationCache(PLATFORM)
        cold = serve_trace(requests, FullReplan(rankmap(cache=cold_cache)),
                           PLATFORM, serve_config(), cache=cold_cache)
        warm = serve_trace(requests, FullReplan(rankmap(cache=cold_cache)),
                           PLATFORM, serve_config(), cache=cold_cache)
        assert cold == warm
        assert cold_cache.hit_rate > 0

    def test_empty_trace_yields_empty_report(self):
        report = serve_trace([], FullReplan(rankmap()), PLATFORM,
                             serve_config())
        assert report.arrivals == 0
        assert report.replans == 0
        assert len(report.timeline.segments) == 1  # one idle segment

    def test_invalid_tier_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown SLA tier"):
            serve_trace([request(0, 1.0, 10.0, tier="platinum")],
                        FullReplan(rankmap()), PLATFORM, serve_config())

    def test_invalid_shift_tier_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown SLA tier"):
            serve_trace([request(0, 1.0, 10.0, shift=(5.0, "platinum"))],
                        FullReplan(rankmap()), PLATFORM, serve_config())

    def test_out_of_horizon_arrivals_accounted(self):
        """Serving a trace with a shorter horizon than it was sampled for
        must not silently drop the unobserved demand."""
        requests = [request(0, 10.0, 50.0), request(1, 150.0, 50.0)]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(horizon=100.0))
        assert report.arrivals == 2
        assert report.out_of_horizon == 1
        assert report.sessions[1].outcome == "out_of_horizon"

    def test_timeline_contiguous_to_horizon(self):
        requests = [request(0, 10.0, 100.0), request(1, 50.0, 60.0)]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(horizon=200.0))
        segs = report.timeline.segments
        for prev, nxt in zip(segs, segs[1:]):
            assert prev.t_end == pytest.approx(nxt.t_start)
        assert segs[-1].t_end == pytest.approx(200.0)

    def test_no_replan_once_a_gap_reaches_the_horizon(self):
        """The first plan's 100 s gap carries the clock past the 60 s
        horizon.  The arrival at t=30 is still admitted when the gap
        closes, but a replan then could never take effect: it is not
        made, and neither counted nor priced."""
        requests = [request(0, 0.0, 500.0), request(1, 30.0, 500.0)]
        report = serve_trace(requests, FixedLatencyGpu(100.0), PLATFORM,
                             serve_config(capacity=2, horizon=60.0))
        assert report.replans == 1
        assert report.replan_kinds == {"full": 1}
        assert report.total_decision_seconds == 100.0
        first, second = report.sessions
        assert first.outcome == second.outcome == "serving"
        assert second.admitted_s == 60.0
        assert second.served_seconds == 0.0
        segs = report.timeline.segments
        assert [(s.t_start, s.t_end) for s in segs] == [(0.0, 60.0)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(horizon_s=0.0)
        with pytest.raises(ValueError):
            ServeConfig(pool=())

    def test_report_summary_renders(self):
        report = serve_trace([request(0, 1.0, 50.0)],
                             FullReplan(rankmap()), PLATFORM,
                             serve_config(horizon=100.0))
        text = report.summary()
        assert "ServeReport" in text and "replans" in text


# -------------------------------------------------------------- preempt
class TestPreemptionController:
    """Verdict-level behaviour of decide_with_plan()/plan_preemption()."""

    def _controller(self, preemption, capacity=2, queue_limit=4):
        return AdmissionController(AdmissionConfig(
            capacity=capacity, queue_limit=queue_limit,
            preemption=preemption))

    def test_unknown_preemption_key_rejected(self):
        with pytest.raises(ValueError, match="unknown preemption policy"):
            AdmissionConfig(preemption="nope")
        with pytest.raises(ValueError, match="unknown preemption policy"):
            build_preemption_policy("nope")

    def test_no_preempt_without_live_views(self):
        c = self._controller("evict_lowest_tier")
        assert c.decide_with_plan("gold", 2, 0, can_place=True)[0] == QUEUE

    def test_gold_preempts_bronze(self):
        c = self._controller("evict_lowest_tier")
        live = (live_view("a", 0, "gold", 0.7), live_view("b", 1, "bronze", 0.1))
        assert c.decide_with_plan("gold", 2, 0, True, live)[0] == PREEMPT
        plan = c.plan_preemption("gold", 2, True, live)
        assert plan.action == "evict" and plan.victim == "b"

    def test_no_self_preemption_among_equals(self):
        """Gold-vs-gold contention: equal tiers never preempt each other."""
        c = self._controller("evict_lowest_tier")
        live = (live_view("a", 0, "gold", 0.7), live_view("b", 1, "gold", 0.7))
        assert c.decide_with_plan("gold", 2, 0, True, live)[0] == QUEUE
        assert c.plan_preemption("gold", 2, True, live) is None

    def test_bronze_cannot_preempt_upward(self):
        c = self._controller("evict_lowest_tier", queue_limit=0)
        live = (live_view("a", 0, "gold", 0.7), live_view("b", 1, "silver", 0.2))
        assert c.decide_with_plan("bronze", 2, 0, True, live)[0] == REJECT

    def test_victim_is_lowest_tier_then_least_served(self):
        c = self._controller("evict_lowest_tier", capacity=3)
        live = (live_view("a", 0, "bronze", 0.1, served=5.0),
                live_view("b", 1, "silver", 0.2, served=1.0),
                live_view("c", 2, "bronze", 0.1, served=2.0))
        plan = c.plan_preemption("gold", 3, True, live)
        assert plan.victim == "c"     # lowest tier, least invested

    def test_victim_tie_break_survives_resumption(self):
        """Regression: a resumed session's admission time resets, but
        its accumulated service must still protect it — otherwise the
        policy re-evicts the same session forever."""
        c = self._controller("evict_lowest_tier", capacity=3)
        # A: evicted once, resumed late (latest admit) but most served.
        live = (live_view("a", 0, "bronze", 0.1, admitted=100.0,
                          served=50.0),
                live_view("b", 1, "bronze", 0.1, admitted=60.0,
                          served=40.0))
        plan = c.plan_preemption("gold", 3, True, live)
        assert plan.victim == "b"     # least served, not latest admitted

    def test_renegotiate_demotes_to_floor(self):
        c = self._controller("renegotiate")
        live = (live_view("a", 0, "silver", 0.2), live_view("b", 1, "gold", 0.7))
        assert c.decide_with_plan("gold", 2, 0, True, live)[0] == PREEMPT
        plan = c.plan_preemption("gold", 2, True, live)
        assert plan.action == "demote"
        assert plan.victim == "a" and plan.demote_to == "bronze"

    def test_renegotiate_skips_floor_tier_victims(self):
        """A victim already at the ladder floor cannot be demoted."""
        c = self._controller("renegotiate")
        live = (live_view("a", 0, "bronze", 0.1), live_view("b", 1, "bronze", 0.1))
        assert c.decide_with_plan("gold", 2, 0, True, live)[0] == QUEUE

    def test_renegotiate_needs_free_name_and_headroom(self):
        c = self._controller("renegotiate", capacity=2)
        live = (live_view("a", 0, "silver", 0.2), live_view("b", 1, "gold", 0.7))
        # Pool exhausted: a demotion frees no name, so no admission.
        assert c.plan_preemption("gold", 2, False, live) is None
        # Already one past capacity: the default overcommit of 1 is spent.
        over = live + (live_view("c", 2, "silver", 0.2),)
        assert c.plan_preemption("gold", 3, True, over) is None

    def test_eviction_respects_capacity_after_freeing(self):
        """Eviction frees exactly one slot, so an overcommitted node
        (left behind by renegotiation) cannot evict below its cap."""
        c = self._controller("evict_lowest_tier", capacity=1)
        live = (live_view("a", 0, "bronze", 0.1), live_view("b", 1, "bronze", 0.1))
        assert c.plan_preemption("gold", 2, True, live) is None


class TestPreemptionLoop:
    """End-to-end eviction / renegotiation semantics in serve_trace."""

    @staticmethod
    def _fast_policy():
        """A near-zero-latency replan policy: timing-precise assertions
        must not be smeared by modeled search gaps."""
        from repro.baselines import GpuBaseline

        return FullReplan(GpuBaseline())

    def test_evicts_only_running_session_and_resumes(self):
        """Edge case: the victim is the only resident — it suspends, the
        gold arrival serves, and the victim resumes to completion."""
        requests = [request(0, 0.0, 100.0, tier="bronze"),
                    request(1, 10.0, 20.0, tier="gold")]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="evict_lowest_tier"))
        bronze, gold = report.sessions
        assert gold.outcome == "served"
        assert gold.admitted_s == pytest.approx(10.0)
        assert gold.queue_wait_s == 0.0
        assert bronze.outcome == "served"
        assert bronze.evictions == 1 and bronze.resumptions == 1
        assert bronze.served_seconds == pytest.approx(100.0)
        # Suspended from t=10 to t=30: the full duration still serves.
        assert bronze.departed_s == pytest.approx(120.0)
        assert report.evictions == 1 and report.resumptions == 1

    def test_evicted_session_never_resumed_is_terminal(self):
        requests = [request(0, 0.0, 390.0, tier="bronze"),
                    request(1, 10.0, 380.0, tier="gold")]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=1, max_wait=50.0,
                                          preemption="evict_lowest_tier"))
        bronze = report.sessions[0]
        assert bronze.outcome == "evicted"
        assert bronze.evictions == 1 and bronze.resumptions == 0
        assert report.evicted == 1
        assert report.eviction_fairness < 1.0

    def test_stale_departure_after_resume_is_ignored(self):
        """Regression: the victim's original departure event (still in
        the heap) must not end its resumed service interval early."""
        requests = [request(0, 0.0, 100.0, tier="bronze"),
                    request(1, 50.0, 10.0, tier="gold")]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="evict_lowest_tier"))
        bronze = report.sessions[0]
        # Evicted at 50, resumed at 60; the stale t=100 departure is
        # skipped and the true one fires at 110.
        assert bronze.departed_s == pytest.approx(110.0)
        assert bronze.served_seconds == pytest.approx(100.0)

    def test_eviction_racing_coincident_departure(self):
        """A departure at the same instant frees the slot first (the
        departure event rank precedes arrivals), so no eviction fires."""
        requests = [request(0, 0.0, 50.0, tier="bronze"),
                    request(1, 50.0, 30.0, tier="gold")]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="evict_lowest_tier"))
        bronze, gold = report.sessions
        assert report.evictions == 0
        assert bronze.outcome == "served"
        assert gold.admitted_s == pytest.approx(50.0)

    def test_renegotiation_demotes_and_overcommits(self):
        requests = [request(0, 0.0, 200.0, tier="silver"),
                    request(1, 10.0, 50.0, tier="gold")]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="renegotiate"))
        victim, gold = report.sessions
        assert report.demotions == 1 and report.evictions == 0
        assert victim.tier == "bronze"        # demoted to the floor
        assert victim.demotions == 1
        assert victim.outcome == "served"     # kept running, overcommitted
        assert gold.admitted_s == pytest.approx(10.0)

    def test_renegotiation_queues_when_victim_already_bronze(self):
        """Edge case: an all-bronze node renegotiates nothing — the gold
        arrival falls back to the queue."""
        requests = [request(0, 0.0, 200.0, tier="bronze"),
                    request(1, 10.0, 50.0, tier="gold")]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="renegotiate"))
        bronze, gold = report.sessions
        assert report.demotions == 0
        assert bronze.tier == "bronze" and bronze.demotions == 0
        assert gold.queue_wait_s > 0

    def test_parked_victims_do_not_consume_queue_slots(self):
        """Suspended sessions wait outside the bounded waiting room: a
        fresh gold arrival still finds a queue slot after an eviction
        filled the node, even with queue_limit=1."""
        requests = [request(0, 0.0, 300.0, tier="bronze"),
                    request(1, 10.0, 300.0, tier="gold"),
                    request(2, 20.0, 50.0, tier="gold")]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=1, queue_limit=1,
                                          preemption="evict_lowest_tier"))
        third = report.sessions[2]
        assert report.evictions == 1
        assert third.outcome != "rejected"

    def test_pending_tier_shift_survives_suspension(self):
        """A not-yet-fired shift keeps its remaining offset across an
        evict/resume cycle (service-relative, like the duration)."""
        requests = [request(0, 0.0, 200.0, tier="bronze",
                            shift=(60.0, "gold")),
                    request(1, 10.0, 20.0, tier="gold")]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="evict_lowest_tier"))
        bronze = report.sessions[0]
        # Evicted at 10 after 10 s of service, resumed at 30; the shift
        # fires 50 s of service later, and the session ends gold.
        assert bronze.evictions == 1 and bronze.resumptions == 1
        assert bronze.tier == "gold"

    def test_preemption_none_matches_legacy_reports(self):
        """The default policy is bit-identical to the pre-preemption
        loop on a stochastic trace."""
        requests = sample_session_requests(
            np.random.default_rng(11),
            TraceConfig(horizon_s=300.0, arrival_rate_per_s=1 / 30,
                        mean_session_s=120.0, pool=POOL))
        a = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                        serve_config())
        b = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                        serve_config(preemption="none"))
        assert a == b
        assert a.evictions == 0 and a.demotions == 0

    def test_preemption_deterministic_given_seed(self):
        requests = sample_session_requests(
            np.random.default_rng(13),
            TraceConfig(horizon_s=300.0, arrival_rate_per_s=1 / 15,
                        mean_session_s=120.0, pool=POOL))
        runs = [serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                            serve_config(preemption="evict_lowest_tier"))
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_summary_shows_preemption_line(self):
        requests = [request(0, 0.0, 100.0, tier="bronze"),
                    request(1, 10.0, 20.0, tier="gold")]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="evict_lowest_tier"))
        assert "preemption:" in report.summary()
        assert "eviction fairness" in report.summary()


class TestPreemptionGapEdge:
    def test_gap_delayed_departure_completes_instead_of_evicting(self):
        """Regression: an eviction landing inside a decision gap *after*
        the victim's scheduled departure must complete the victim (it
        already served its full duration) rather than park a negative
        remainder that would later read as eviction collateral."""
        # b's 20 s session ends inside the ~32 s initial-plan gap; the
        # gold arrival at t=10 is processed when the gap closes, with b
        # still occupying the only slot past its own departure time.
        requests = [request(0, 0.0, 20.0, tier="bronze"),
                    request(1, 10.0, 50.0, tier="gold")]
        report = serve_trace(requests, FullReplan(rankmap()), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="evict_lowest_tier"))
        bronze, gold = report.sessions
        assert bronze.outcome == "served"
        assert bronze.evictions == 0
        assert report.evictions == 0 and report.evicted == 0
        assert gold.admitted_s is not None

    def test_renegotiation_voids_pending_tier_shift(self):
        """Regression: demoting a victim renegotiates its whole contract
        — a pre-scheduled mid-session promotion must not silently fire
        later and undo the demotion."""
        from repro.baselines import GpuBaseline

        requests = [request(0, 0.0, 200.0, tier="silver",
                            shift=(60.0, "gold")),
                    request(1, 10.0, 50.0, tier="gold")]
        report = serve_trace(requests, FullReplan(GpuBaseline()), PLATFORM,
                             serve_config(capacity=1,
                                          preemption="renegotiate"))
        victim = report.sessions[0]
        assert victim.demotions == 1
        assert victim.tier == "bronze"     # stays at the floor


class TestCustomLadderRenegotiation:
    def test_renegotiate_derives_floor_from_custom_ladder(self):
        """Regression: the demotion floor follows the controller's own
        tier ladder instead of assuming a tier named 'bronze' exists."""
        from repro.workloads.sla import SlaClass

        ladder = (SlaClass("plat", priority=0.8, min_potential=0.3),
                  SlaClass("mid", priority=0.4, min_potential=0.1),
                  SlaClass("basic", priority=0.1, min_potential=0.01))
        c = AdmissionController(
            AdmissionConfig(capacity=1, preemption="renegotiate"),
            tiers=ladder)
        assert c.floor_tier().name == "basic"
        plan = c.plan_preemption("plat", 1, True,
                                 (live_view("a", 0, "mid", 0.4),))
        assert plan.action == "demote" and plan.demote_to == "basic"
        # A victim already at the custom floor is still not demotable.
        assert c.plan_preemption("plat", 1, True,
                                 (live_view("a", 0, "basic", 0.1),)) is None


# ------------------------------------------------------------ streaming
class TestStreamingLoop:
    """The streaming rearchitecture: generator-fed arrivals, a waiting
    room keyed at enqueue, scheduled queue timeouts, per-record
    accounting."""

    @staticmethod
    def _fast_policy():
        from repro.baselines import GpuBaseline

        return FullReplan(GpuBaseline())

    def _sampled(self, seed=9, shift_prob=0.3):
        return sample_session_requests(
            np.random.default_rng(seed),
            TraceConfig(horizon_s=360.0, arrival_rate_per_s=1 / 8,
                        mean_session_s=120.0, pool=POOL),
            tier_shift_prob=shift_prob)

    def test_generator_input_matches_list_input(self):
        requests = self._sampled()
        config = serve_config(capacity=2, queue_limit=4, max_wait=60.0,
                              horizon=360.0, preemption="evict_lowest_tier")
        cache = EvaluationCache(PLATFORM)
        from_list = serve_trace(requests, self._fast_policy(), PLATFORM,
                                config, cache=cache)
        from_stream = serve_trace((r for r in requests),
                                  self._fast_policy(), PLATFORM, config,
                                  cache=cache)
        assert from_list == from_stream

    def test_streaming_matches_reference_loop(self):
        from tests.oracles.serve_reference import serve_trace_reference

        requests = self._sampled(seed=21)
        config = serve_config(capacity=2, queue_limit=4, max_wait=60.0,
                              horizon=360.0, preemption="renegotiate")
        cache = EvaluationCache(PLATFORM)
        streamed = serve_trace((r for r in requests), self._fast_policy(),
                               PLATFORM, config, cache=cache)
        reference = serve_trace_reference(requests, self._fast_policy(),
                                          PLATFORM, config, cache=cache)
        assert streamed == reference

    def test_disordered_stream_rejected(self):
        disordered = iter([request(1, 50.0, 10.0), request(0, 10.0, 10.0)])
        with pytest.raises(ValueError, match="ordered"):
            serve_trace(disordered, self._fast_policy(), PLATFORM,
                        serve_config())

    def test_stream_tier_validated_at_pull(self):
        bad = iter([request(0, 1.0, 10.0, tier="platinum")])
        with pytest.raises(ValueError, match="unknown SLA tier"):
            serve_trace(bad, self._fast_policy(), PLATFORM, serve_config())

    def test_record_timeline_off_drops_segments_only(self):
        requests = self._sampled(seed=2)
        base = serve_config(capacity=2, queue_limit=4, max_wait=60.0,
                            horizon=360.0)
        from dataclasses import replace as dc_replace

        with_tl = serve_trace(requests, self._fast_policy(), PLATFORM,
                              base)
        without_tl = serve_trace(requests, self._fast_policy(), PLATFORM,
                                 dc_replace(base, record_timeline=False))
        assert without_tl.timeline.segments == []
        assert with_tl.timeline.segments != []
        assert without_tl.sessions == with_tl.sessions
        assert without_tl.replans == with_tl.replans
        assert without_tl.total_decision_seconds \
            == with_tl.total_decision_seconds

    def test_out_of_horizon_stream_tail_accounted(self):
        stream = iter([request(0, 10.0, 20.0), request(1, 150.0, 20.0),
                       request(2, 160.0, 20.0)])
        report = serve_trace(stream, self._fast_policy(), PLATFORM,
                             serve_config(horizon=100.0))
        assert report.arrivals == 3
        assert report.out_of_horizon == 2
        assert report.sessions[0].outcome == "served"


class TestQueueTimeoutEvents:
    """Regression lock on the scheduled-timeout bugfix: abandonment
    happens (and is stamped) at ``enqueue + max_queue_wait_s``, not at
    whatever later event used to scan the queue — or never."""

    @staticmethod
    def _fast_policy():
        from repro.baselines import GpuBaseline

        return FullReplan(GpuBaseline())

    def test_quiet_tail_abandons_at_true_deadline(self):
        """The seed-loop bug: with no event after the deadline, the
        queued session used to surface as 'queued' at finalize.  The
        timeout event fires in the quiet stretch and stamps the time."""
        requests = [request(0, 10.0, 1000.0), request(1, 20.0, 50.0)]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1, max_wait=60.0,
                                          horizon=400.0))
        waiter = report.sessions[1]
        assert waiter.outcome == "abandoned"
        assert waiter.queue_wait_s == pytest.approx(60.0)
        assert waiter.abandoned_s == pytest.approx(80.0)

    def test_abandonment_not_delayed_by_late_events(self):
        """With a distant next event (first departure at t=310), the
        abandonment is still stamped at its deadline, not detection."""
        requests = [request(0, 10.0, 300.0), request(1, 20.0, 50.0),
                    request(2, 330.0, 10.0)]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1, max_wait=60.0,
                                          horizon=400.0))
        waiter = report.sessions[1]
        assert waiter.outcome == "abandoned"
        assert waiter.abandoned_s == pytest.approx(80.0)

    def test_parked_eviction_timeout_stamps_abandonment(self):
        """A suspended (evicted) session that waits out the timeout is
        eviction collateral — and now carries its abandonment time."""
        requests = [request(0, 0.0, 200.0, tier="bronze"),
                    request(1, 10.0, 500.0, tier="gold")]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1, max_wait=50.0,
                                          horizon=400.0,
                                          preemption="evict_lowest_tier"))
        bronze = report.sessions[0]
        assert bronze.outcome == "evicted"
        assert bronze.evictions == 1 and bronze.resumptions == 0
        assert bronze.queue_wait_s == pytest.approx(50.0)
        assert bronze.abandoned_s == pytest.approx(60.0)

    def test_still_queued_at_horizon_not_abandoned(self):
        """A deadline at or past the horizon never fires: the session
        ends 'queued' with its observed wait, no abandonment stamp."""
        requests = [request(0, 10.0, 1000.0), request(1, 20.0, 50.0)]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1, max_wait=500.0,
                                          horizon=400.0))
        waiter = report.sessions[1]
        assert waiter.outcome == "queued"
        assert waiter.abandoned_s is None
        assert waiter.queue_wait_s == pytest.approx(380.0)


class TestKeyedWaitingRoom:
    """Regression lock on the drain-order bugfix: the keyed heap drains
    exactly the (tier desc, enqueue time, session id) order the seed
    loop's per-admission re-sort produced."""

    @staticmethod
    def _fast_policy():
        from repro.baselines import GpuBaseline

        return FullReplan(GpuBaseline())

    def test_drain_order_tier_then_fifo(self):
        requests = [request(0, 0.0, 100.0, tier="gold"),
                    request(4, 5.0, 30.0, tier="silver"),
                    request(1, 10.0, 30.0, tier="silver"),
                    request(3, 15.0, 30.0, tier="gold"),
                    request(2, 20.0, 30.0, tier="gold")]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1, queue_limit=6,
                                          max_wait=300.0, horizon=400.0))
        admitted = sorted(
            (s for s in report.sessions if s.admitted_s is not None),
            key=lambda s: s.admitted_s)
        # Gold before silver, FIFO within each tier.
        assert [s.session_id for s in admitted] == [0, 3, 2, 4, 1]
        assert all(s.outcome == "served" for s in report.sessions)

    def test_drain_order_matches_reference_resort(self):
        from tests.oracles.serve_reference import serve_trace_reference

        requests = [request(0, 0.0, 100.0, tier="gold"),
                    request(4, 5.0, 30.0, tier="silver"),
                    request(1, 10.0, 30.0, tier="silver"),
                    request(3, 15.0, 30.0, tier="gold"),
                    request(2, 20.0, 30.0, tier="gold")]
        config = serve_config(capacity=1, queue_limit=6, max_wait=300.0,
                              horizon=400.0)
        heap_report = serve_trace(requests, self._fast_policy(), PLATFORM,
                                  config)
        sort_report = serve_trace_reference(requests, self._fast_policy(),
                                            PLATFORM, config)
        assert heap_report == sort_report

    def test_resumed_session_drains_by_parking_time(self):
        """A parked eviction re-enters the drain order keyed by its
        eviction (re-enqueue) time, not its original arrival — so the
        session suspended at t=10 resumes before the fresh same-tier
        arrival queued at t=20."""
        requests = [request(0, 0.0, 300.0, tier="silver"),
                    request(1, 10.0, 40.0, tier="gold"),
                    request(2, 20.0, 40.0, tier="silver")]
        report = serve_trace(requests, self._fast_policy(), PLATFORM,
                             serve_config(capacity=1, queue_limit=6,
                                          max_wait=350.0, horizon=400.0,
                                          preemption="evict_lowest_tier"))
        first, gold, second = report.sessions
        assert first.evictions == 1 and first.resumptions == 1
        assert gold.outcome == "served"
        # The suspended session resumes when gold departs (~t=50) and
        # holds the node for its remaining ~290 s; the fresh silver is
        # only admitted after that, not at the gold departure.
        assert second.admitted_s is not None
        assert second.admitted_s > 300.0
