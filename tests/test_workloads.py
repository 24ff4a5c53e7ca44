"""Tests for repro.workloads: mixes, scenarios, traces and SLA groups."""

import numpy as np
import pytest

from repro.hw import orange_pi_5
from repro.sim import run_dynamic_scenario
from repro.sim.dynamic import MappingDecision
from repro.workloads import (
    BRONZE,
    FIG8_ARRIVALS,
    FIG10_STAGES,
    FIG10_WORKLOAD,
    GOLD,
    MOTIVATION_WORKLOAD,
    SILVER,
    SlaClass,
    TraceConfig,
    assign_tiers,
    evaluate_sla,
    fig8_events,
    fig10_events,
    motivation_workload,
    poisson_trace,
    rotating_priority_schedule,
    sample_mix,
    staggered_arrivals,
    trace_peak_concurrency,
)
from repro.zoo import get_model


# ---------------------------------------------------------------- mixes
class TestMixes:
    def test_motivation_workload_matches_paper(self):
        assert MOTIVATION_WORKLOAD == (
            "squeezenet_v2", "inception_v4", "resnet50", "vgg16")
        models = motivation_workload()
        assert [m.name for m in models] == list(MOTIVATION_WORKLOAD)

    def test_sample_mix_distinct_models(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            mix = sample_mix(rng, 5)
            names = [m.name for m in mix]
            assert len(set(names)) == 5

    def test_sample_mix_size_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_mix(rng, 0)
        with pytest.raises(ValueError):
            sample_mix(rng, 24)  # pool has 23 models

    def test_sample_mix_custom_pool(self):
        rng = np.random.default_rng(0)
        pool = ("alexnet", "vgg16")
        mix = sample_mix(rng, 2, pool=pool)
        assert {m.name for m in mix} == set(pool)


# ------------------------------------------------------------ scenarios
class TestScenarios:
    def test_fig8_events_match_paper_order(self):
        events = fig8_events()
        assert [(e.time, e.model.name) for e in events] == list(FIG8_ARRIVALS)
        assert all(e.kind == "arrival" for e in events)

    def test_fig10_events_structure(self):
        events = fig10_events()
        arrivals = [e for e in events if e.kind == "arrival"]
        shifts = [e for e in events if e.kind == "priority"]
        assert {e.model.name for e in arrivals} == set(FIG10_WORKLOAD)
        assert all(e.time == 0.0 for e in arrivals)
        assert [e.time for e in shifts] == [t for t, _ in FIG10_STAGES]
        for (t, critical), event in zip(FIG10_STAGES, shifts):
            top = max(event.priorities, key=event.priorities.get)
            assert top == critical

    def test_staggered_arrivals_cadence(self):
        models = [get_model(n) for n in ("alexnet", "vgg16", "resnet50")]
        events = staggered_arrivals(models, period=100.0, start=50.0)
        assert [e.time for e in events] == [50.0, 150.0, 250.0]

    def test_staggered_arrivals_rejects_bad_period(self):
        with pytest.raises(ValueError):
            staggered_arrivals([get_model("alexnet")], period=0.0)

    def test_rotating_schedule_rejects_unknown_name(self):
        models = [get_model("alexnet")]
        with pytest.raises(ValueError, match="not in workload"):
            rotating_priority_schedule(models, ["vgg16"])

    def test_rotating_schedule_priority_levels(self):
        models = [get_model(n) for n in ("alexnet", "vgg16")]
        events = rotating_priority_schedule(models, ["vgg16"], high=0.9,
                                            low=0.05)
        shift = [e for e in events if e.kind == "priority"][0]
        assert shift.priorities == {"vgg16": 0.9, "alexnet": 0.05}


# --------------------------------------------------------------- traces
class TestTraces:
    def test_trace_events_sorted_and_within_horizon(self):
        rng = np.random.default_rng(5)
        config = TraceConfig(horizon_s=1200.0, arrival_rate_per_s=1 / 30)
        events = poisson_trace(rng, config)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0.0 <= t < config.horizon_s for t in times)

    def test_trace_respects_concurrency_cap(self):
        rng = np.random.default_rng(9)
        config = TraceConfig(horizon_s=3000.0, arrival_rate_per_s=1 / 10,
                             mean_session_s=600.0, max_concurrent=3)
        events = poisson_trace(rng, config)
        assert trace_peak_concurrency(events) <= 3

    def test_trace_no_duplicate_live_names(self):
        rng = np.random.default_rng(13)
        config = TraceConfig(horizon_s=2000.0, arrival_rate_per_s=1 / 20,
                             mean_session_s=400.0)
        events = poisson_trace(rng, config)
        live: set[str] = set()
        for event in sorted(events,
                            key=lambda e: (e.time, e.kind != "departure")):
            if event.kind == "arrival":
                assert event.model.name not in live
                live.add(event.model.name)
            else:
                live.discard(event.model.name)

    def test_trace_reproducible(self):
        config = TraceConfig(horizon_s=900.0)
        a = poisson_trace(np.random.default_rng(21), config)
        b = poisson_trace(np.random.default_rng(21), config)
        assert [(e.time, e.kind, e.model.name) for e in a] == \
               [(e.time, e.kind, e.model.name) for e in b]

    def test_trace_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(horizon_s=0)
        with pytest.raises(ValueError):
            TraceConfig(arrival_rate_per_s=0)
        with pytest.raises(ValueError):
            TraceConfig(mean_session_s=-1)
        with pytest.raises(ValueError):
            TraceConfig(max_concurrent=0)
        with pytest.raises(ValueError):
            TraceConfig(pool=())


class TestSessionRequests:
    def test_requests_uncapped_and_ordered(self):
        from repro.workloads import sample_session_requests

        config = TraceConfig(horizon_s=2000.0, arrival_rate_per_s=1 / 15,
                             max_concurrent=1)
        requests = sample_session_requests(np.random.default_rng(4), config)
        times = [r.arrival_s for r in requests]
        assert times == sorted(times)
        assert all(0.0 <= t < config.horizon_s for t in times)
        assert [r.session_id for r in requests] == list(range(len(requests)))
        # ~133 expected arrivals: far beyond any max_concurrent cap.
        assert len(requests) > config.max_concurrent

    def test_tiers_rotate_deterministically(self):
        from repro.workloads import sample_session_requests

        config = TraceConfig(horizon_s=1000.0, arrival_rate_per_s=1 / 20)
        requests = sample_session_requests(np.random.default_rng(8), config)
        cycle = ("gold", "silver", "bronze")
        assert [r.tier for r in requests] == \
            [cycle[i % 3] for i in range(len(requests))]

    def test_tier_shifts_sampled_within_duration(self):
        from repro.workloads import sample_session_requests

        config = TraceConfig(horizon_s=4000.0, arrival_rate_per_s=1 / 15)
        requests = sample_session_requests(
            np.random.default_rng(2), config, tier_shift_prob=1.0)
        shifted = [r for r in requests if r.tier_shift is not None]
        assert shifted                       # every non-gold session shifts
        assert all(r.tier != "gold" for r in shifted)
        for r in shifted:
            offset, new_tier = r.tier_shift
            assert new_tier == "gold"
            assert 0.0 < offset < r.duration_s

    def test_reproducible_given_seed(self):
        from repro.workloads import sample_session_requests

        config = TraceConfig(horizon_s=900.0)
        a = sample_session_requests(np.random.default_rng(33), config,
                                    tier_shift_prob=0.5)
        b = sample_session_requests(np.random.default_rng(33), config,
                                    tier_shift_prob=0.5)
        assert a == b

    def test_argument_validation(self):
        from repro.workloads import sample_session_requests

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_session_requests(rng, tiers=())
        with pytest.raises(ValueError):
            sample_session_requests(rng, tier_shift_prob=1.5)

    def test_iter_form_matches_list_form(self):
        from repro.workloads import (iter_session_requests,
                                     sample_session_requests)

        config = TraceConfig(horizon_s=1500.0, arrival_rate_per_s=1 / 12)
        streamed = list(iter_session_requests(np.random.default_rng(7),
                                              config, tier_shift_prob=0.4))
        sampled = sample_session_requests(np.random.default_rng(7),
                                          config, tier_shift_prob=0.4)
        assert streamed == sampled

    def test_iter_is_lazy_but_validates_eagerly(self):
        from repro.workloads import iter_session_requests

        rng = np.random.default_rng(3)
        state_before = rng.bit_generator.state
        stream = iter_session_requests(rng, TraceConfig(horizon_s=800.0))
        # No draw happened yet: the generator body has not started.
        assert rng.bit_generator.state == state_before
        first = next(stream)
        assert first.session_id == 0
        assert rng.bit_generator.state != state_before
        # ...but argument validation is eager, before any draw.
        with pytest.raises(ValueError):
            iter_session_requests(np.random.default_rng(3), tiers=())

    def test_shift_tier_sessions_consume_draw_but_never_shift(self):
        """Rng-consumption contract of the tier-shift draw.

        Whenever ``tier_shift_prob > 0`` *every* session consumes one
        uniform draw — including sessions already in ``shift_tier``,
        which can never shift.  The no-op draw advances the rng, so
        traces with and without shifts diverge after the first session;
        a mirrored manual replay pins the exact draw order.
        """
        from repro.workloads import sample_session_requests

        config = TraceConfig(horizon_s=1200.0, arrival_rate_per_s=1 / 15)
        requests = sample_session_requests(
            np.random.default_rng(11), config, tiers=("gold",),
            tier_shift_prob=0.9, shift_tier="gold")
        assert len(requests) > 10
        assert all(r.tier_shift is None for r in requests)

        # Mirror the sampler draw by draw: inter-arrival exponential,
        # duration exponential, then exactly one uniform (consumed and
        # discarded because tier == shift_tier).
        mirror = np.random.default_rng(11)
        t = 0.0
        replayed = []
        while True:
            t += mirror.exponential(1.0 / config.arrival_rate_per_s)
            if t >= config.horizon_s:
                break
            duration = mirror.exponential(config.mean_session_s)
            mirror.random()                  # the no-op shift draw
            replayed.append((float(t), float(duration)))
        assert [(r.arrival_s, r.duration_s) for r in requests] == replayed

        # Dropping the probability removes the draw, so the second
        # arrival onward sees a different rng stream.
        without = sample_session_requests(
            np.random.default_rng(11), config, tiers=("gold",),
            tier_shift_prob=0.0)
        assert without[0] == requests[0]
        assert without[1].arrival_s != requests[1].arrival_s


# ------------------------------------------------------------------ SLA
class TestSla:
    def test_sla_class_validation(self):
        with pytest.raises(ValueError):
            SlaClass("bad", priority=0.0, min_potential=0.1)
        with pytest.raises(ValueError):
            SlaClass("bad", priority=0.5, min_potential=1.5)

    def test_assign_tiers_round_robin(self):
        models = motivation_workload()
        assignment = assign_tiers(models)
        tiers = [assignment.tier_of(m.name).name for m in models]
        assert tiers == ["gold", "silver", "bronze", "gold"]

    def test_assign_tiers_explicit(self):
        models = [get_model("alexnet"), get_model("vgg16")]
        assignment = assign_tiers(models, {"alexnet": "bronze",
                                           "vgg16": "gold"})
        assert assignment.tier_of("alexnet") is BRONZE
        assert assignment.tier_of("vgg16") is GOLD

    def test_assign_tiers_rejects_missing_or_unknown(self):
        models = [get_model("alexnet")]
        with pytest.raises(ValueError, match="no tier"):
            assign_tiers(models, {})
        with pytest.raises(ValueError, match="unknown tier"):
            assign_tiers(models, {"alexnet": "platinum"})

    def test_evaluate_sla_on_simulated_timeline(self):
        platform = orange_pi_5()
        models = [get_model("alexnet"), get_model("squeezenet")]
        assignment = assign_tiers(models, {"alexnet": "gold",
                                           "squeezenet": "bronze"})

        from repro.baselines import GpuBaseline
        manager = GpuBaseline()

        def planner(workload, priorities):
            return manager.plan(workload, priorities)

        events = staggered_arrivals(models, period=50.0)
        timeline = run_dynamic_scenario(events, planner, platform, 200.0)
        report = evaluate_sla(timeline, assignment)
        assert report.observed_seconds > 0
        assert 0.0 <= report.violation_fraction <= 1.0
        assert set(report.mean_potential_by_tier) <= {"gold", "bronze"}

    def test_evaluate_sla_flags_violations(self):
        # A synthetic zero-rate planner must violate every positive floor.
        platform = orange_pi_5()
        models = [get_model("alexnet")]
        assignment = assign_tiers(models, {"alexnet": "gold"})

        from repro.mapping import single_component_mapping

        def planner(workload, priorities):
            # Park everything on the LITTLE cluster: P will be far below
            # gold's 0.20 floor.
            return MappingDecision(
                single_component_mapping(workload, component=2))

        events = staggered_arrivals(models, period=50.0)
        timeline = run_dynamic_scenario(events, planner, platform, 100.0)
        report = evaluate_sla(timeline, assignment)
        assert not report.satisfied
        assert report.violation_fraction > 0

    def test_evaluate_sla_settle_window_exempts_start(self):
        platform = orange_pi_5()
        models = [get_model("alexnet")]
        assignment = assign_tiers(models, {"alexnet": "gold"})

        from repro.mapping import single_component_mapping

        def planner(workload, priorities):
            return MappingDecision(
                single_component_mapping(workload, component=2))

        events = staggered_arrivals(models, period=50.0)
        timeline = run_dynamic_scenario(events, planner, platform, 100.0)
        full = evaluate_sla(timeline, assignment)
        exempt = evaluate_sla(timeline, assignment, settle_seconds=100.0)
        assert full.violation_seconds > 0
        assert exempt.violation_seconds == 0.0
        assert exempt.satisfied

    def test_sla_tier_ladder_is_ordered(self):
        assert GOLD.priority > SILVER.priority > BRONZE.priority
        assert GOLD.min_potential > SILVER.min_potential > BRONZE.min_potential
