"""Tests for the multi-node fleet dispatcher (routing, dispatch, report)."""

import math

import numpy as np
import pytest

from repro.core import OraclePredictor, RankMap, RankMapConfig
from repro.hw import (dvfs_ladder, jetson_class, jetson_class_power,
                      orange_pi_5, orange_pi_5_power)
from repro.search import MCTSConfig
from repro.serve import AdmissionConfig, ServeConfig, build_replan_policy
from repro.serve.fleet import (
    ROUTING_POLICIES,
    DispatchPlan,
    FleetNode,
    FleetPowerConfig,
    FleetPowerReport,
    LeastJoulesRouter,
    LeastLoadedRouter,
    NodeSpec,
    NodeView,
    PowerSegment,
    RoundRobinRouter,
    TierAffinityRouter,
    build_routing_policy,
    jain_index,
    node_speed,
    plan_dispatch,
    serve_fleet,
)
from repro.workloads import (
    SessionRequest,
    TraceConfig,
    fleet_demand_config,
    sample_session_requests,
    split_session_requests,
)

POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")


def request(sid, arrival, duration, tier="gold", shift=None):
    return SessionRequest(session_id=sid, arrival_s=arrival,
                          duration_s=duration, tier=tier, tier_shift=shift)


def views(*specs):
    return [NodeView(index=i, name=f"n{i}", capacity=cap, speed=speed,
                     est_live=live)
            for i, (cap, speed, live) in enumerate(specs)]


# --------------------------------------------------------------- routing
class TestRouting:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        nodes = views((2, 1.0, 0), (2, 1.0, 0), (2, 1.0, 0))
        picks = [router.choose("gold", nodes) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_dead_nodes(self):
        router = RoundRobinRouter()
        alive = views((2, 1.0, 0), (2, 1.0, 0))      # node 2 already dead
        picks = [router.choose("gold", alive) for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_least_loaded_weighs_speed(self):
        router = LeastLoadedRouter()
        # One free slot on a fast node beats two on a slow one.
        nodes = views((3, 1.0, 1), (2, 4.0, 1))
        assert router.choose("bronze", nodes) == 1

    def test_least_loaded_prefers_lowest_index_on_tie(self):
        router = LeastLoadedRouter()
        nodes = views((2, 1.0, 1), (2, 1.0, 1))
        assert router.choose("gold", nodes) == 0

    def test_least_loaded_saturated_picks_least_overloaded(self):
        router = LeastLoadedRouter()
        nodes = views((2, 1.0, 4), (2, 1.0, 3))
        assert router.choose("gold", nodes) == 1

    def test_least_loaded_overload_favours_fast_drain(self):
        """Regression: under saturation the deficit is divided by speed,
        not multiplied — a fast node 2 over capacity clears its backlog
        sooner than a slow node 2 over."""
        router = LeastLoadedRouter()
        nodes = views((2, 4.0, 4), (2, 1.0, 4))
        assert router.choose("gold", nodes) == 0
        # A free slot anywhere still beats every saturated node.
        with_free = views((2, 4.0, 4), (2, 1.0, 1))
        assert router.choose("gold", with_free) == 1

    def test_tier_affinity_reserves_fastest_for_gold(self):
        router = TierAffinityRouter(reserve_fraction=1 / 3)
        nodes = views((2, 1.0, 0), (2, 5.0, 0), (2, 1.0, 0))
        assert router.choose("gold", nodes) == 1
        assert router.choose("bronze", nodes) in (0, 2)

    def test_tier_affinity_bronze_spills_only_when_saturated(self):
        router = TierAffinityRouter(reserve_fraction=1 / 3)
        full = views((1, 1.0, 1), (2, 5.0, 0), (1, 1.0, 1))
        assert router.choose("bronze", full) == 1   # unreserved saturated
        free = views((1, 1.0, 0), (2, 5.0, 0), (1, 1.0, 1))
        assert router.choose("bronze", free) == 0

    def test_tier_affinity_validates_config(self):
        with pytest.raises(ValueError):
            TierAffinityRouter(reserve_fraction=0.0)
        with pytest.raises(ValueError):
            TierAffinityRouter(gold_tiers=())

    def test_roster_builds_fresh_instances(self):
        assert set(ROUTING_POLICIES) == {"round_robin", "least_loaded",
                                         "least_joules",
                                         "tier_affinity",
                                         "tier_affinity_preempt",
                                         "pressure_feedback"}
        a = build_routing_policy("round_robin")
        b = build_routing_policy("round_robin")
        assert a is not b
        with pytest.raises(ValueError, match="unknown routing policy"):
            build_routing_policy("nope")


# -------------------------------------------------------------- dispatch
class TestPlanDispatch:
    def _specs(self, n=3, capacity=2, fail=None):
        return [NodeSpec(name=f"n{i}", capacity=capacity,
                         speed=1.0 + 0.5 * i,
                         fail_at_s=(fail if i == 0 else None))
                for i in range(n)]

    def test_round_robin_splits_evenly(self):
        requests = [request(i, 10.0 * i, 5.0) for i in range(6)]
        plan = plan_dispatch(requests, self._specs(), "round_robin", 100.0)
        assert plan.routed == (2, 2, 2)
        assert plan.re_dispatched == 0 and plan.lost == ()

    def test_every_request_routed_exactly_once(self):
        rng = np.random.default_rng(3)
        requests = sample_session_requests(
            rng, TraceConfig(horizon_s=400.0, arrival_rate_per_s=1 / 10,
                             mean_session_s=60.0))
        plan = plan_dispatch(requests, self._specs(), "least_loaded", 400.0)
        routed_ids = sorted(r.session_id for node in plan.node_requests
                            for r in node)
        assert routed_ids == sorted(r.session_id for r in requests)

    def test_deterministic_per_key(self):
        requests = [request(i, 3.0 * i, 40.0) for i in range(20)]
        plans = [plan_dispatch(requests, self._specs(), "tier_affinity",
                               200.0) for _ in range(2)]
        assert plans[0] == plans[1]

    def test_failure_drains_live_sessions(self):
        # Both sessions live on node 0 when it dies at t=50.
        requests = [request(0, 0.0, 100.0), request(1, 10.0, 100.0)]
        specs = [NodeSpec(name="dead", capacity=4, fail_at_s=50.0),
                 NodeSpec(name="alive", capacity=4)]
        plan = plan_dispatch(requests, specs, "round_robin", 200.0)
        assert plan.re_dispatched >= 1
        moved = [r for r in plan.node_requests[1] if r.arrival_s == 50.0]
        assert moved, "re-dispatched continuations arrive at the failure time"
        for r in moved:
            original = requests[r.session_id]
            assert r.duration_s == pytest.approx(
                original.arrival_s + original.duration_s - 50.0)

    def test_out_of_horizon_demand_is_recorded(self):
        """Regression: demand arriving after the horizon must be counted,
        not silently vanish from the plan."""
        requests = [request(0, 10.0, 5.0), request(1, 150.0, 5.0)]
        plan = plan_dispatch(requests, self._specs(), "round_robin", 100.0)
        assert sum(plan.routed) == 1
        assert [r.session_id for r in plan.out_of_horizon] == [1]

    def test_failure_with_no_survivors_loses_sessions(self):
        requests = [request(0, 0.0, 100.0), request(1, 60.0, 10.0)]
        specs = [NodeSpec(name="only", capacity=4, fail_at_s=50.0)]
        plan = plan_dispatch(requests, specs, "round_robin", 200.0)
        # Session 0 was live at the failure; session 1 arrived after it.
        assert plan.re_dispatched == 1
        assert len(plan.lost) == 2

    def test_fired_tier_shift_bakes_into_redispatch(self):
        req = request(0, 0.0, 100.0, tier="bronze", shift=(10.0, "gold"))
        specs = [NodeSpec(name="dead", capacity=4, fail_at_s=50.0),
                 NodeSpec(name="alive", capacity=4)]
        plan = plan_dispatch([req], specs, "round_robin", 200.0)
        moved = plan.node_requests[1][0]
        assert moved.tier == "gold" and moved.tier_shift is None

    def test_pending_tier_shift_keeps_remaining_offset(self):
        req = request(0, 0.0, 100.0, tier="bronze", shift=(80.0, "gold"))
        specs = [NodeSpec(name="dead", capacity=4, fail_at_s=50.0),
                 NodeSpec(name="alive", capacity=4)]
        plan = plan_dispatch([req], specs, "round_robin", 200.0)
        moved = plan.node_requests[1][0]
        assert moved.tier == "bronze"
        assert moved.tier_shift == (pytest.approx(30.0), "gold")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(name="x", capacity=0)
        for speed in (math.nan, math.inf):
            with pytest.raises(ValueError, match="speed"):
                NodeSpec(name="x", capacity=1, speed=speed)
        with pytest.raises(ValueError, match="fail_at_s"):
            NodeSpec(name="x", capacity=1, fail_at_s=math.nan)
        with pytest.raises(ValueError):
            NodeSpec(name="x", capacity=1, speed=0.0)
        with pytest.raises(ValueError):
            NodeSpec(name="x", capacity=1, fail_at_s=0.0)
        with pytest.raises(ValueError):
            plan_dispatch([], [], "round_robin", 100.0)
        with pytest.raises(ValueError):
            plan_dispatch([], self._specs(), "round_robin", 0.0)

    @pytest.mark.parametrize("capacity", [2.5, 2.0, True])
    def test_capacity_must_be_int(self, capacity):
        """The dispatcher prices occupancy as ``est_live / capacity`` and
        the power governor tables ``0..capacity``: a fractional (or bool)
        capacity would disagree with admission's ``active < capacity``."""
        with pytest.raises(ValueError, match="capacity must be an int"):
            NodeSpec(name="x", capacity=capacity)

    def test_node_speed_orders_platforms(self):
        slow = node_speed(orange_pi_5(), POOL)
        fast = node_speed(jetson_class(), POOL)
        assert 0 < slow < fast
        with pytest.raises(ValueError):
            node_speed(orange_pi_5(), ())


# ------------------------------------------------------------ the fleet
def fleet_nodes(n=3, capacity=2, fail=None, horizon=240.0):
    nodes = []
    for i in range(n):
        platform = orange_pi_5() if i % 2 == 0 else jetson_class()
        manager = RankMap(
            platform, OraclePredictor(platform),
            RankMapConfig(mode="dynamic",
                          mcts=MCTSConfig(iterations=6, rollouts_per_leaf=2,
                                          seed=i)))
        nodes.append(FleetNode(
            spec=NodeSpec(name=f"n{i}", capacity=capacity,
                          speed=node_speed(platform, POOL),
                          fail_at_s=(fail if i == 0 else None)),
            platform=platform,
            policy=build_replan_policy("warm", manager),
            config=ServeConfig(horizon_s=horizon,
                               admission=AdmissionConfig(capacity=capacity),
                               pool=POOL, seed=i)))
    return nodes


def demand(horizon=240.0, seed=0, rate=1 / 8):
    return sample_session_requests(
        np.random.default_rng(seed),
        TraceConfig(horizon_s=horizon, arrival_rate_per_s=rate,
                    mean_session_s=90.0))


class TestServeFleet:
    def test_inline_fleet_end_to_end(self):
        # A 300 s demand against a 240 s fleet: the tail is out of horizon
        # but still accounted, matching the single-node ledger.
        requests = demand(horizon=300.0)
        report = serve_fleet(requests, fleet_nodes(), "least_loaded")
        assert report.routing == "least_loaded"
        assert len(report.nodes) == 3
        assert report.arrivals == len(requests)
        assert report.out_of_horizon == sum(
            1 for r in requests if r.arrival_s >= 240.0)
        assert report.admitted > 0
        assert report.delivered_inferences > 0
        assert 0.0 < report.node_fairness <= 1.0
        assert 0.0 < report.session_fairness <= 1.0
        assert "FleetReport[least_loaded]" in report.summary()

    def test_failed_node_report_truncates_at_failure(self):
        report = serve_fleet(demand(), fleet_nodes(fail=100.0),
                             "round_robin")
        failed = report.nodes[0]
        assert failed.failed_at_s == 100.0
        assert failed.report.horizon_s == 100.0
        assert all(n.report.horizon_s == 240.0 for n in report.nodes[1:])

    def test_tier_outcomes_cover_all_tiers(self):
        report = serve_fleet(demand(), fleet_nodes(), "tier_affinity")
        tiers = report.tier_outcomes()
        assert set(tiers) <= {"gold", "silver", "bronze"}
        assert sum(row["arrivals"] for row in tiers.values()) \
            == report.arrivals - report.lost - report.out_of_horizon
        for row in tiers.values():
            assert row["admitted"] <= row["arrivals"]

    def test_tier_outcomes_distinct_under_failure(self):
        """Regression: a re-dispatched session must count once per tier,
        not once per node report it appears in."""
        report = serve_fleet(demand(rate=1 / 5), fleet_nodes(fail=100.0),
                             "round_robin")
        assert report.re_dispatched > 0
        tiers = report.tier_outcomes()
        assert sum(row["arrivals"] for row in tiers.values()) \
            == report.arrivals - report.lost - report.out_of_horizon

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            serve_fleet([], [], "round_robin")


# --------------------------------------------------------------- report
class TestJainIndex:
    def test_even_is_one(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_holder_is_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_degenerate_inputs(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0


# ------------------------------------------------------ trace utilities
class TestTraceSplitting:
    def test_fleet_demand_scales_rate_and_cap(self):
        base = TraceConfig(horizon_s=600.0, arrival_rate_per_s=1 / 60,
                           mean_session_s=120.0, max_concurrent=3)
        scaled = fleet_demand_config(base, 4)
        assert scaled.arrival_rate_per_s == pytest.approx(4 / 60)
        assert scaled.max_concurrent == 12
        assert scaled.mean_session_s == base.mean_session_s
        with pytest.raises(ValueError):
            fleet_demand_config(base, 0)

    def test_split_round_robins_in_arrival_order(self):
        requests = [request(i, float(10 - i), 5.0) for i in range(6)]
        shards = split_session_requests(requests, 2)
        assert [r.session_id for r in shards[0]] == [5, 3, 1]
        assert [r.session_id for r in shards[1]] == [4, 2, 0]
        assert sum(len(s) for s in shards) == len(requests)
        with pytest.raises(ValueError):
            split_session_requests(requests, 0)

    def test_plan_is_plain_data(self):
        import pickle

        plan = plan_dispatch([request(0, 0.0, 5.0)],
                             [NodeSpec(name="n", capacity=1)],
                             "round_robin", 10.0)
        assert isinstance(plan, DispatchPlan)
        assert pickle.loads(pickle.dumps(plan)) == plan


# ------------------------------------------------- preemption-aware fleet
class TestPreemptAwareRouting:
    def _router(self):
        from repro.serve.fleet import PreemptAwareTierRouter

        return PreemptAwareTierRouter(reserve_fraction=1 / 3)

    def test_gold_prefers_reserved_free_slot(self):
        router = self._router()
        nodes = views((2, 1.0, 0), (2, 5.0, 0), (2, 1.0, 0))
        assert router.choose("gold", nodes) == 1

    def test_gold_avoids_eviction_by_spilling_to_unreserved(self):
        """A full reserved node would evict; a free unreserved slot is
        preferred even though tier affinity would keep gold reserved."""
        router = self._router()
        nodes = views((2, 1.0, 1), (2, 5.0, 2), (2, 1.0, 2))
        assert router.choose("gold", nodes) == 0

    def test_bronze_spills_to_reserved_free_slot(self):
        router = self._router()
        nodes = views((1, 1.0, 1), (2, 5.0, 0), (1, 1.0, 1))
        assert router.choose("bronze", nodes) == 1

    def test_saturated_fleet_falls_back_to_tier_affinity(self):
        """With no free slot anywhere the preemption is unavoidable, so
        the choice degrades to the plain tier-affinity pick."""
        from repro.serve.fleet import TierAffinityRouter

        router = self._router()
        plain = TierAffinityRouter(reserve_fraction=1 / 3)
        nodes = views((2, 1.0, 3), (2, 5.0, 2), (2, 1.0, 2))
        for tier in ("gold", "bronze"):
            assert router.choose(tier, nodes) == plain.choose(tier, nodes)


class TestFleetPreemption:
    def _preempt_fleet(self, routing="tier_affinity_preempt", fail_at=()):
        from repro.runner import DynamicScenario, FleetScenario

        nodes = tuple(DynamicScenario(
            name=f"node{i}", manager="baseline", policy="full",
            platform=("orange_pi_5" if i % 2 == 0 else "jetson_class"),
            seed=i, pool=POOL, capacity=2, queue_limit=6,
            preemption="evict_lowest_tier") for i in range(3))
        return FleetScenario(name=f"pf_{routing}", nodes=nodes,
                             routing=routing, seed=0, horizon_s=240.0,
                             arrival_rate_per_s=1 / 4, mean_session_s=90.0,
                             fail_at=fail_at)

    def test_parallel_equals_serial_with_preemption_and_failure(self):
        """Determinism regression: preemption-enabled fleets (including
        the node-failure re-dispatch path, whose continuations land on
        nodes that then evict for them) are bit-identical for 1 vs N
        workers."""
        from repro.runner import ScenarioRunner

        fleets = [self._preempt_fleet(),
                  self._preempt_fleet(fail_at=((1, 120.0),))]
        serial = ScenarioRunner(max_workers=1).run_fleet(fleets)
        parallel = ScenarioRunner(max_workers=3).run_fleet(fleets)
        assert [r.report for r in serial] == [r.report for r in parallel]
        report = serial[1].report
        assert report.re_dispatched > 0
        assert report.evictions > 0

    def test_fleet_report_rolls_up_preemption(self):
        from repro.runner import ScenarioRunner

        report = ScenarioRunner(max_workers=1).run_fleet(
            [self._preempt_fleet()])[0].report
        assert report.evictions == sum(n.report.evictions
                                       for n in report.nodes)
        assert report.resumptions <= report.evictions
        assert 0.0 < report.eviction_fairness <= 1.0
        if report.evictions:
            assert "preemption:" in report.summary()


# ------------------------------------------------- pressure feedback loop
class TestNodePressure:
    def _report(self, **kw):
        from types import SimpleNamespace

        defaults = dict(arrivals=10, out_of_horizon=2, abandoned=2,
                        rejected=1, queued_at_horizon=3)
        defaults.update(kw)
        return SimpleNamespace(**defaults)

    def test_rates_over_observed_arrivals(self):
        from repro.serve.fleet import pressure_from_report

        pressure = pressure_from_report(self._report())
        assert pressure.queue_depth == 3
        assert pressure.abandonment_rate == pytest.approx(2 / 8)
        assert pressure.rejection_rate == pytest.approx(1 / 8)
        assert pressure.denial_rate == pytest.approx(3 / 8)

    def test_nothing_observed_is_zero_pressure(self):
        from repro.serve.fleet import pressure_from_report

        pressure = pressure_from_report(self._report(
            arrivals=2, out_of_horizon=2, abandoned=0, rejected=0,
            queued_at_horizon=1))
        assert pressure.abandonment_rate == 0.0
        assert pressure.rejection_rate == 0.0
        assert pressure.queue_depth == 1   # residual queue still counts

    def test_denial_rate_clamped(self):
        from repro.serve.fleet import NodePressure

        assert NodePressure(abandonment_rate=0.8,
                            rejection_rate=0.7).denial_rate == 1.0
        assert NodePressure().denial_rate == 0.0

    def test_fleet_pressure_keys_by_name(self):
        from repro.serve.fleet import fleet_pressure

        specs = [NodeSpec(name="a", capacity=1),
                 NodeSpec(name="b", capacity=1)]
        pressure = fleet_pressure(specs, [self._report(),
                                          self._report(queued_at_horizon=0)])
        assert set(pressure) == {"a", "b"}
        assert pressure["a"].queue_depth == 3
        assert pressure["b"].queue_depth == 0

    def test_fleet_pressure_length_mismatch_rejected(self):
        from repro.serve.fleet import fleet_pressure

        with pytest.raises(ValueError, match="specs but"):
            fleet_pressure([NodeSpec(name="a", capacity=1)], [])


class TestPressureFeedbackRouting:
    def _router(self, pressure=None):
        from repro.serve.fleet import PressureFeedbackRouter

        router = PressureFeedbackRouter()
        if pressure:
            router.observe_pressure(pressure)
        return router

    def test_no_pressure_reproduces_least_loaded(self):
        """The feedback_rounds=0 anchor: with nothing observed the policy
        is LeastLoadedRouter choice for choice."""
        plain = LeastLoadedRouter()
        scenarios = [views((3, 1.0, 1), (2, 4.0, 1)),
                     views((2, 1.0, 1), (2, 1.0, 1)),
                     views((2, 4.0, 4), (2, 1.0, 4)),
                     views((2, 4.0, 4), (2, 1.0, 1))]
        for nodes in scenarios:
            assert self._router().choose("gold", nodes) \
                == plain.choose("gold", nodes)

    def test_residual_queue_counts_as_live_load(self):
        from repro.serve.fleet import NodePressure

        nodes = views((2, 1.0, 0), (2, 1.0, 0))
        assert self._router().choose("gold", nodes) == 0   # index tie-break
        router = self._router({"n0": NodePressure(queue_depth=2)})
        assert router.choose("gold", nodes) == 1

    def test_denial_rate_discounts_speed(self):
        from repro.serve.fleet import NodePressure

        nodes = views((2, 4.0, 1), (2, 3.0, 1))
        assert self._router().choose("gold", nodes) == 0   # faster headroom
        router = self._router({"n0": NodePressure(rejection_rate=0.8)})
        assert router.choose("gold", nodes) == 1           # 4*0.2 < 3

    def test_full_denial_stays_orderable(self):
        """The 95% discount cap: a node that turned everything away keeps
        a positive adjusted speed, so saturation drain-times stay finite."""
        from repro.serve.fleet import NodePressure

        nodes = views((2, 1.0, 4), (2, 1.0, 4))
        router = self._router({"n0": NodePressure(abandonment_rate=1.0),
                               "n1": NodePressure(abandonment_rate=1.0)})
        assert router.choose("gold", nodes) in (0, 1)      # no crash

    def test_pressure_blind_policies_ignore_the_hook(self):
        from repro.serve.fleet import NodePressure

        nodes = views((2, 1.0, 0), (2, 1.0, 0))
        plain = LeastLoadedRouter()
        plain.observe_pressure({"n0": NodePressure(queue_depth=9)})
        assert plain.choose("gold", nodes) == 0


class TestServeFleetFeedback:
    def test_feedback_rounds_deterministic(self):
        requests = demand(rate=1 / 5)
        a = serve_fleet(requests, fleet_nodes(), "pressure_feedback",
                        feedback_rounds=2)
        b = serve_fleet(requests, fleet_nodes(), "pressure_feedback",
                        feedback_rounds=2)
        assert a == b
        assert a.routing == "pressure_feedback"

    def test_round_zero_matches_least_loaded_node_reports(self):
        """feedback_rounds=0 with the pressure router is bit-for-bit
        today's least_loaded dispatch (only the routing label differs)."""
        requests = demand()
        fed = serve_fleet(requests, fleet_nodes(), "pressure_feedback",
                          feedback_rounds=0)
        plain = serve_fleet(requests, fleet_nodes(), "least_loaded")
        assert [n.report for n in fed.nodes] \
            == [n.report for n in plain.nodes]

    def test_feedback_survives_node_failure(self):
        report = serve_fleet(demand(rate=1 / 5), fleet_nodes(fail=100.0),
                             "pressure_feedback", feedback_rounds=1)
        assert report.re_dispatched > 0
        assert report.nodes[0].failed_at_s == 100.0

    def test_policy_objects_cannot_iterate(self):
        """Each round needs a *fresh* policy; an instance cannot be
        rebuilt, so feedback_rounds>0 demands a roster key."""
        from repro.serve.fleet import PressureFeedbackRouter

        with pytest.raises(ValueError, match="roster key"):
            serve_fleet(demand(), fleet_nodes(), PressureFeedbackRouter(),
                        feedback_rounds=1)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="feedback_rounds"):
            serve_fleet(demand(), fleet_nodes(), "pressure_feedback",
                        feedback_rounds=-1)

    @pytest.mark.parametrize("rounds", [0, 2])
    def test_plan_dispatch_patch_point_called_once_per_round(self, rounds):
        """The fleet benchmark times the dispatch decision by rebinding
        ``plan_dispatch`` in :mod:`repro.serve.fleet.dispatch` around a
        ``serve_fleet`` call; the call must look the name up there, once
        per round."""
        from repro.serve.fleet import dispatch as module

        inner = module.plan_dispatch
        calls = []

        def plan_dispatch(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        module.plan_dispatch = plan_dispatch
        try:
            serve_fleet(demand(), fleet_nodes(), "pressure_feedback",
                        feedback_rounds=rounds)
        finally:
            module.plan_dispatch = inner
        assert len(calls) == rounds + 1


# ---------------------------------------------------------------- power
def power_views(*specs):
    """(capacity, speed, est_live, marginal_watts) NodeView shorthand."""
    return [NodeView(index=i, name=f"n{i}", capacity=cap, speed=speed,
                     est_live=live, marginal_watts=watts)
            for i, (cap, speed, live, watts) in enumerate(specs)]


def fleet_ladders(n=3, multipliers=(1.0, 0.8, 0.6)):
    """Heterogeneous DVFS ladders matching the fleet_nodes platform mix."""
    return tuple(
        dvfs_ladder(orange_pi_5_power() if i % 2 == 0
                    else jetson_class_power(), multipliers)
        for i in range(n))


class TestLeastJoulesRouting:
    def test_picks_cheapest_marginal_joules(self):
        router = LeastJoulesRouter()
        # Node 1 serves the session at fewer joules: same speed, less
        # marginal draw.
        nodes = power_views((2, 1.0, 0, 4.0), (2, 1.0, 0, 1.5))
        assert router.choose("gold", nodes) == 1

    def test_joules_not_watts(self):
        router = LeastJoulesRouter()
        # Node 0 draws more but serves 4x faster: fewer joules per
        # delivered inference than the slow low-watt node.
        nodes = power_views((2, 4.0, 0, 4.0), (2, 1.0, 0, 2.0))
        assert router.choose("gold", nodes) == 0

    def test_tie_breaks_on_drain_score_then_index(self):
        router = LeastJoulesRouter()
        # Equal joules: the emptier node wins on headroom.
        nodes = power_views((2, 1.0, 1, 2.0), (3, 1.0, 0, 2.0))
        assert router.choose("gold", nodes) == 1
        # Fully symmetric: lowest index.
        even = power_views((2, 1.0, 0, 2.0), (2, 1.0, 0, 2.0))
        assert router.choose("gold", even) == 0

    def test_zero_watts_degenerates_to_least_loaded(self):
        """Power-blind views (marginal_watts=0.0) must reproduce the
        least-loaded choice — the degenerate anchor of the whole policy."""
        shapes = [((3, 1.0, 1, 0.0), (2, 4.0, 1, 0.0)),
                  ((2, 1.0, 1, 0.0), (2, 1.0, 1, 0.0)),
                  ((2, 1.0, 0, 0.0), (3, 2.0, 2, 0.0))]
        baseline = LeastLoadedRouter()
        for shape in shapes:
            nodes = power_views(*shape)
            assert LeastJoulesRouter().choose("gold", nodes) \
                == baseline.choose("gold", nodes)

    def test_saturated_falls_back_to_drain_score(self):
        router = LeastJoulesRouter()
        # No free slots anywhere: route where the backlog drains fastest,
        # exactly like least_loaded under saturation — watts are moot on
        # a node that cannot admit.
        nodes = power_views((2, 4.0, 4, 0.5), (2, 1.0, 4, 0.1))
        assert router.choose("gold", nodes) == 0

    def test_free_slot_beats_cheap_saturated_node(self):
        router = LeastJoulesRouter()
        nodes = power_views((2, 1.0, 2, 0.1), (2, 1.0, 1, 9.0))
        assert router.choose("gold", nodes) == 1


class TestFleetPowerConfig:
    def test_rejects_empty_or_flat_ladders(self):
        with pytest.raises(ValueError, match="non-empty"):
            FleetPowerConfig(ladders=((),))
        good = dvfs_ladder(orange_pi_5_power(), (1.0, 0.5))
        bad = (good[0], good[0])        # equal multipliers: not decreasing
        with pytest.raises(ValueError, match="strictly"):
            FleetPowerConfig(ladders=(bad,))

    def test_rejects_bad_cap_and_shift(self):
        ladder = dvfs_ladder(orange_pi_5_power(), (1.0,))
        with pytest.raises(ValueError, match="cap_w"):
            FleetPowerConfig(ladders=(ladder,), cap_w=0.0)
        with pytest.raises(ValueError, match="cap_shift"):
            FleetPowerConfig(ladders=(ladder,), cap_shift=(0.0, 5.0))
        with pytest.raises(ValueError, match="cap_shift"):
            FleetPowerConfig(ladders=(ladder,), cap_shift=(10.0, -1.0))
        with pytest.raises(ValueError, match="hysteresis"):
            FleetPowerConfig(ladders=(ladder,), hysteresis=1.5)
        # NaN compares false against everything, so a NaN cap would
        # silently mean uncapped; inf is the documented account-only cap.
        with pytest.raises(ValueError, match="cap_w"):
            FleetPowerConfig(ladders=(ladder,), cap_w=math.nan)
        with pytest.raises(ValueError, match="cap_shift"):
            FleetPowerConfig(ladders=(ladder,), cap_shift=(math.nan, 5.0))
        with pytest.raises(ValueError, match="cap_shift"):
            FleetPowerConfig(ladders=(ladder,), cap_shift=(10.0, math.nan))
        assert FleetPowerConfig(ladders=(ladder,), cap_w=math.inf,
                                cap_shift=(10.0, math.inf)).cap_w == math.inf

    def test_ladder_count_must_match_fleet(self):
        requests = [request(0, 1.0, 5.0)]
        specs = [NodeSpec(name="a", capacity=2), NodeSpec(name="b", capacity=2)]
        config = FleetPowerConfig(ladders=fleet_ladders(n=1))
        with pytest.raises(ValueError, match="ladders"):
            plan_dispatch(requests, specs, "least_joules", 100.0,
                          power=config)


class TestPowerLedger:
    def test_segment_over_cap_watt_seconds(self):
        seg = PowerSegment(start_s=10.0, end_s=30.0, watts=12.0, cap_w=10.0)
        assert seg.duration_s == pytest.approx(20.0)
        assert seg.over_cap_ws == pytest.approx(40.0)
        under = PowerSegment(start_s=0.0, end_s=5.0, watts=3.0, cap_w=10.0)
        assert under.over_cap_ws == 0.0

    def _report(self, segments):
        return FleetPowerReport(
            cap_w=10.0, cap_shift=None, enforced=True, node_names=("n0",),
            node_energy_ws=(sum(s.watts * s.duration_s for s in segments),),
            node_over_cap_ws=(sum(s.over_cap_ws for s in segments),),
            node_final_levels=(0,), dvfs_transitions=(), segments=segments)

    def test_over_cap_between_is_pro_rata(self):
        report = self._report((
            PowerSegment(0.0, 100.0, 15.0, 10.0),     # 500 Ws over
            PowerSegment(100.0, 200.0, 8.0, 10.0),    # under
        ))
        assert report.fleet_over_cap_ws == pytest.approx(500.0)
        # A window covering half the violating segment gets half its Ws.
        assert report.over_cap_ws_between(50.0, 150.0) \
            == pytest.approx(250.0)
        assert report.over_cap_ws_between(0.0, 200.0) \
            == pytest.approx(500.0)
        assert report.over_cap_ws_between(100.0, 200.0) == 0.0

    def test_empty_ledger_mean_watts(self):
        assert self._report(()).mean_watts == 0.0

    def test_summary_mentions_cap_and_nodes(self):
        text = self._report((PowerSegment(0.0, 10.0, 5.0, 10.0),)).summary()
        assert "PowerLedger[cap 10.0 W" in text and "n0:" in text


class TestPowerGovernedDispatch:
    def _specs(self, n=3, capacity=2, fail=None):
        return [NodeSpec(name=f"n{i}", capacity=capacity,
                         speed=1.0 + 0.5 * i,
                         fail_at_s=(fail if i == 0 else None))
                for i in range(n)]

    def _demand(self, seed=0, rate=1 / 6, horizon=240.0):
        return sample_session_requests(
            np.random.default_rng(seed),
            TraceConfig(horizon_s=horizon, arrival_rate_per_s=rate,
                        mean_session_s=90.0))

    def test_pricing_is_one_table_per_governor(self, monkeypatch):
        """The governor prices every (DVFS level, occupancy) pair of every
        node once and looks the rest up: one dispatch of the
        ``test_bench_fleet_energy[cap_on]`` fleet makes exactly
        sum(len(ladder) x (capacity + 1)) = 90 node_watts calls, where
        per-query pricing made tens of thousands."""
        from repro.hw.energy import DvfsState

        requests = self._demand(rate=1 / 4, horizon=3600.0)
        specs = [NodeSpec(name=f"n{i}", capacity=4, speed=1.0 + 0.5 * i,
                          fail_at_s=(1800.0 if i == 0 else None))
                 for i in range(6)]
        config = FleetPowerConfig(
            ladders=fleet_ladders(n=6, multipliers=(1.0, 0.8, 0.65)),
            cap_w=40.0, cap_shift=(1800.0, 18.0))
        calls = []
        node_watts = DvfsState.node_watts

        def counted(state, utilisation):
            calls.append(utilisation)
            return node_watts(state, utilisation)

        monkeypatch.setattr(DvfsState, "node_watts", counted)
        plan = plan_dispatch(requests, specs, "least_joules", 3600.0,
                             power=config)
        assert plan.power.dvfs_transitions and plan.shed
        expected = sum(len(ladder) * (spec.capacity + 1)
                       for ladder, spec in zip(config.ladders, specs))
        assert expected == 90
        assert len(calls) == expected

    def test_power_blind_plan_has_no_ledger(self):
        plan = plan_dispatch(self._demand(), self._specs(), "least_loaded",
                             240.0)
        assert plan.power is None and plan.shed == ()

    def test_degenerate_power_is_byte_identical_to_least_loaded(self):
        """Satellite regression: cap=inf + single DVFS state must leave
        the dispatch byte-identical to today's power-blind least_loaded —
        the governor rides along but never perturbs a routing decision."""
        requests = self._demand(rate=1 / 5)
        plain = plan_dispatch(requests, self._specs(), "least_loaded", 240.0)
        config = FleetPowerConfig(
            ladders=fleet_ladders(multipliers=(1.0,)), cap_w=math.inf)
        governed = plan_dispatch(requests, self._specs(), "least_loaded",
                                 240.0, power=config)
        assert governed.node_requests == plain.node_requests
        assert governed.routed == plain.routed
        assert governed.lost == plain.lost
        assert governed.out_of_horizon == plain.out_of_horizon
        assert governed.shed == ()
        ledger = governed.power
        assert ledger is not None
        assert ledger.fleet_over_cap_ws == 0.0
        assert ledger.dvfs_transitions == ()
        assert ledger.node_final_levels == (0, 0, 0)
        assert ledger.fleet_energy_ws > 0.0

    def test_degenerate_power_survives_node_failure(self):
        requests = self._demand(rate=1 / 5)
        specs = self._specs(fail=100.0)
        plain = plan_dispatch(requests, specs, "least_loaded", 240.0)
        governed = plan_dispatch(
            requests, specs, "least_loaded", 240.0,
            power=FleetPowerConfig(ladders=fleet_ladders(multipliers=(1.0,)),
                                   cap_w=math.inf))
        assert governed.node_requests == plain.node_requests
        assert governed.re_dispatched == plain.re_dispatched
        # The dead node stops accruing energy at its failure time: it
        # must not out-consume the always-on nodes over a 240 s horizon.
        ledger = governed.power
        assert ledger.node_energy_ws[0] < max(ledger.node_energy_ws[1:])

    def test_segments_partition_horizon(self):
        config = FleetPowerConfig(ladders=fleet_ladders(), cap_w=30.0,
                                  cap_shift=(120.0, 14.0))
        plan = plan_dispatch(self._demand(), self._specs(), "least_joules",
                             240.0, power=config)
        segments = plan.power.segments
        assert segments[0].start_s == 0.0
        assert segments[-1].end_s == pytest.approx(240.0)
        for prev, cur in zip(segments, segments[1:]):
            assert cur.start_s == pytest.approx(prev.end_s)
        assert all(s.cap_w == 30.0 for s in segments if s.end_s <= 120.0)
        assert all(s.cap_w == 14.0 for s in segments if s.start_s >= 120.0)

    def test_deterministic_per_config(self):
        config = FleetPowerConfig(ladders=fleet_ladders(), cap_w=22.0,
                                  cap_shift=(100.0, 12.0))
        plans = [plan_dispatch(self._demand(), self._specs(fail=150.0),
                               "least_joules", 240.0, power=config)
                 for _ in range(2)]
        assert plans[0] == plans[1]

    def test_brownout_enforcement_beats_cap_blind(self):
        """Dropping the cap mid-trace makes the enforced fleet throttle
        (DVFS transitions at/after the shift) and accrue no more over-cap
        watt-seconds than the cap-blind baseline, which never throttles."""
        requests = self._demand(rate=1 / 5)
        specs = self._specs()
        shift = (120.0, 12.0)
        enforced = plan_dispatch(
            requests, specs, "least_joules", 240.0,
            power=FleetPowerConfig(ladders=fleet_ladders(), cap_w=1000.0,
                                   cap_shift=shift)).power
        blind = plan_dispatch(
            requests, specs, "least_joules", 240.0,
            power=FleetPowerConfig(ladders=fleet_ladders(), cap_w=1000.0,
                                   cap_shift=shift, enforce=False)).power
        # Pre-shift both fleets fit under the generous cap.
        assert enforced.over_cap_ws_between(0.0, 120.0) == 0.0
        assert blind.over_cap_ws_between(0.0, 120.0) == 0.0
        # Post-shift the blind fleet violates; enforcement throttles.
        assert blind.over_cap_ws_between(120.0, 240.0) > 0.0
        assert enforced.over_cap_ws_between(120.0, 240.0) \
            < blind.over_cap_ws_between(120.0, 240.0)
        assert enforced.dvfs_transitions
        assert all(t >= 120.0 for t, _, _ in enforced.dvfs_transitions)
        assert blind.dvfs_transitions == ()
        assert blind.node_final_levels == (0, 0, 0)
        assert blind.shed == 0

    def test_impossible_cap_sheds_sheddable_tiers_only(self):
        """A cap below even the ladder-floor fleet draw sheds every
        sheddable arrival; non-sheddable tiers still route (and their
        overage lands in the ledger instead)."""
        requests = self._demand(rate=1 / 5)
        config = FleetPowerConfig(ladders=fleet_ladders(), cap_w=0.5,
                                  shed_tiers=("bronze", "silver"))
        plan = plan_dispatch(requests, self._specs(), "least_joules",
                             240.0, power=config)
        assert plan.shed
        assert {r.tier for r in plan.shed} <= {"bronze", "silver"}
        routed_tiers = {r.tier for node in plan.node_requests for r in node}
        assert "gold" in routed_tiers
        assert not any(r.tier in ("bronze", "silver")
                       for node in plan.node_requests for r in node)
        assert plan.power.shed == len(plan.shed)
        assert dict(plan.power.shed_by_tier) == {
            tier: sum(1 for r in plan.shed if r.tier == tier)
            for tier in {r.tier for r in plan.shed}}
        assert plan.power.fleet_over_cap_ws > 0.0

    def test_shed_arrivals_balance_the_plan(self):
        requests = self._demand(rate=1 / 4, horizon=300.0)
        config = FleetPowerConfig(ladders=fleet_ladders(), cap_w=16.0,
                                  cap_shift=(100.0, 8.0))
        plan = plan_dispatch(requests, self._specs(fail=150.0),
                             "least_joules", 240.0, power=config)
        assert sum(plan.routed) - plan.re_dispatched + len(plan.lost) \
            + len(plan.out_of_horizon) + len(plan.shed) == len(requests)
        shed_ids = {r.session_id for r in plan.shed}
        routed_ids = {r.session_id for node in plan.node_requests
                      for r in node}
        assert not shed_ids & routed_ids

    def test_dead_fleet_arrival_is_lost_not_shed(self):
        requests = [request(0, 10.0, 20.0, tier="bronze"),
                    request(1, 80.0, 20.0, tier="bronze")]
        specs = [NodeSpec(name="only", capacity=2, fail_at_s=50.0)]
        config = FleetPowerConfig(ladders=fleet_ladders(n=1), cap_w=0.5)
        plan = plan_dispatch(requests, specs, "least_joules", 200.0,
                             power=config)
        # Arrival 0 hits a live-but-over-budget fleet: shed.  Arrival 1
        # hits a dead fleet: lost, exactly as on the power-blind path.
        assert [r.session_id for r in plan.shed] == [0]
        assert 1 in {r.session_id for r in plan.lost}


class TestServeFleetPower:
    def test_power_ledger_rides_the_fleet_report(self):
        requests = demand()
        config = FleetPowerConfig(ladders=fleet_ladders(), cap_w=24.0)
        report = serve_fleet(requests, fleet_nodes(), "least_joules",
                             power=config)
        assert report.routing == "least_joules"
        assert report.power is not None
        assert report.power.fleet_energy_ws > 0.0
        assert report.arrivals == len(requests)
        for node in report.nodes:
            assert node.energy_ws is not None and node.energy_ws > 0.0
            assert node.over_cap_ws is not None
        assert "power" in report.summary()

    def test_degenerate_power_matches_power_blind_serving(self):
        requests = demand()
        config = FleetPowerConfig(
            ladders=fleet_ladders(multipliers=(1.0,)), cap_w=math.inf)
        governed = serve_fleet(requests, fleet_nodes(), "least_loaded",
                               power=config)
        plain = serve_fleet(requests, fleet_nodes(), "least_loaded")
        assert [n.report for n in governed.nodes] \
            == [n.report for n in plain.nodes]
        assert governed.shed == 0

    def test_power_with_feedback_rounds_deterministic(self):
        requests = demand(rate=1 / 5)
        config = FleetPowerConfig(ladders=fleet_ladders(), cap_w=20.0,
                                  cap_shift=(120.0, 10.0))
        a = serve_fleet(requests, fleet_nodes(), "pressure_feedback",
                        feedback_rounds=1, power=config)
        b = serve_fleet(requests, fleet_nodes(), "pressure_feedback",
                        feedback_rounds=1, power=config)
        assert a == b
        assert a.power is not None
