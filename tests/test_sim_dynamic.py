"""Unit tests for the dynamic scenario engine."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.hw import orange_pi_5
from repro.mapping import gpu_only_mapping
from repro.sim import (
    MappingDecision,
    arrival,
    departure,
    priority_change,
    run_dynamic_scenario,
)
from repro.zoo import get_model

PLATFORM = orange_pi_5()


def gpu_planner(decision_seconds=0.0):
    """Trivial planner: everything on the GPU."""

    def plan(workload, priorities):
        return MappingDecision(gpu_only_mapping(workload), decision_seconds)

    return plan


class TestScenarioBasics:
    def test_single_arrival_runs_at_ideal(self):
        model = get_model("resnet50")
        tl = run_dynamic_scenario([arrival(0.0, model)], gpu_planner(),
                                  PLATFORM, horizon=100.0)
        assert tl.potential_at("resnet50", 50.0) == pytest.approx(1.0)
        assert tl.min_potential("resnet50") == pytest.approx(1.0)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_dynamic_scenario([], gpu_planner(), PLATFORM, 10.0)

    def test_arrival_lowers_existing_dnn(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b)], gpu_planner(),
            PLATFORM, horizon=200.0,
        )
        before = tl.potential_at("resnet50", 50.0)
        after = tl.potential_at("resnet50", 150.0)
        assert after < before

    def test_departure_restores_throughput(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b), departure(200.0, b)],
            gpu_planner(), PLATFORM, horizon=300.0,
        )
        shared = tl.potential_at("resnet50", 150.0)
        alone = tl.potential_at("resnet50", 250.0)
        assert alone > shared
        assert tl.potential_at("vgg16", 250.0) is None

    def test_decision_gap_blocks_new_arrival(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b)], gpu_planner(30.0),
            PLATFORM, horizon=200.0,
        )
        # During the 30 s decision window the arriving DNN is idle.
        assert tl.potential_at("vgg16", 110.0) == 0.0
        assert tl.potential_at("vgg16", 150.0) > 0.0
        # The resident DNN keeps running on the old mapping.
        assert tl.potential_at("resnet50", 110.0) > 0.0

    def test_priority_event_triggers_replan(self):
        calls = []

        def recording_planner(workload, priorities):
            calls.append(np.array(priorities))
            return MappingDecision(gpu_only_mapping(workload))

        model = get_model("resnet50")
        run_dynamic_scenario(
            [arrival(0.0, model),
             priority_change(50.0, {"resnet50": 0.9})],
            recording_planner, PLATFORM, horizon=100.0,
        )
        assert len(calls) == 2
        assert calls[1][0] == pytest.approx(0.9)

    def test_events_sorted_automatically(self):
        a, b = get_model("resnet50"), get_model("mobilenet")
        tl = run_dynamic_scenario(
            [arrival(100.0, b), arrival(0.0, a)], gpu_planner(),
            PLATFORM, horizon=150.0,
        )
        assert tl.potential_at("mobilenet", 50.0) is None
        assert tl.potential_at("mobilenet", 120.0) > 0

    def test_malformed_events_rejected(self):
        with pytest.raises(ValueError):
            run_dynamic_scenario(
                [arrival(0.0, get_model("alexnet")),
                 priority_change(1.0, {})],
                gpu_planner(), PLATFORM, 10.0,
            )

    def test_second_arrival_of_active_name_rejected(self):
        alexnet = get_model("alexnet")
        with pytest.raises(ValueError, match="already active"):
            run_dynamic_scenario(
                [arrival(0.0, alexnet), arrival(10.0, alexnet),
                 departure(20.0, alexnet)],
                gpu_planner(), PLATFORM, 30.0,
            )
        # Arriving again after a departure is a new session, not a clash.
        tl = run_dynamic_scenario(
            [arrival(0.0, alexnet), departure(10.0, alexnet),
             arrival(20.0, alexnet)],
            gpu_planner(), PLATFORM, 30.0,
        )
        assert tl.potential_at("alexnet", 15.0) is None
        assert tl.potential_at("alexnet", 25.0) == pytest.approx(1.0)


def recording_planner(decision_seconds):
    """GPU-only planner that logs the workload names of every call."""
    calls = []

    def plan(workload, priorities):
        calls.append(tuple(m.name for m in workload))
        return MappingDecision(gpu_only_mapping(workload), decision_seconds)

    return plan, calls


class TestDecisionGaps:
    """The gap rules shared with the serving loop."""

    def test_event_inside_gap_waits_for_it_to_close(self):
        plan, calls = recording_planner(5.0)
        tl = run_dynamic_scenario(
            [arrival(0.0, get_model("alexnet")),
             arrival(1.0, get_model("resnet50"))],
            plan, PLATFORM, horizon=20.0,
        )
        spans = [(seg.t_start, seg.t_end) for seg in tl.segments]
        assert spans == [(0.0, 5.0), (5.0, 10.0), (10.0, 20.0)]
        assert sum(seg.duration for seg in tl.segments) == 20.0
        assert calls == [("alexnet",), ("alexnet", "resnet50")]
        # alexnet waits out its own gap and nothing else; resnet50 waits
        # while the second decision runs.
        assert tl.potential_at("alexnet", 3.0) == 0.0
        assert tl.potential_at("resnet50", 3.0) is None
        assert tl.potential_at("alexnet", 7.0) == pytest.approx(1.0)
        assert tl.potential_at("resnet50", 7.0) == 0.0
        assert tl.potential_at("resnet50", 15.0) > 0.0

    def test_same_timestamp_events_plan_once(self):
        names = ("mobilenet_v2", "squeezenet", "shufflenet", "alexnet")
        events = [arrival(0.0, get_model(n)) for n in names]
        events.append(priority_change(0.0, {"alexnet": 0.7}))
        plan, calls = recording_planner(30.0)
        tl = run_dynamic_scenario(events, plan, PLATFORM, horizon=100.0)
        assert calls == [names]
        spans = [(seg.t_start, seg.t_end) for seg in tl.segments]
        assert spans == [(0.0, 30.0), (30.0, 100.0)]

    def test_event_at_horizon_calls_no_planner(self):
        plan, calls = recording_planner(0.0)
        tl = run_dynamic_scenario(
            [arrival(0.0, get_model("resnet50")),
             arrival(100.0, get_model("vgg16"))],
            plan, PLATFORM, horizon=100.0,
        )
        assert calls == [("resnet50",)]
        assert tl.segments[-1].t_end == 100.0

    def test_deferred_event_gap_is_cut_at_the_horizon(self):
        plan, calls = recording_planner(50.0)
        tl = run_dynamic_scenario(
            [arrival(0.0, get_model("resnet50")),
             arrival(30.0, get_model("vgg16"))],
            plan, PLATFORM, horizon=60.0,
        )
        spans = [(seg.t_start, seg.t_end) for seg in tl.segments]
        assert spans == [(0.0, 50.0), (50.0, 60.0)]
        assert len(calls) == 2
        assert tl.potential_at("vgg16", 40.0) is None
        assert tl.potential_at("vgg16", 55.0) == 0.0

    def test_no_planner_call_once_a_gap_reaches_the_horizon(self):
        """The first decision's 100 s gap carries the clock past the 60 s
        horizon: the arrival at t=30 is still applied when the gap closes,
        but a decision then could never take effect, so none is asked."""
        plan, calls = recording_planner(100.0)
        tl = run_dynamic_scenario(
            [arrival(0.0, get_model("resnet50")),
             arrival(30.0, get_model("vgg16"))],
            plan, PLATFORM, horizon=60.0,
        )
        assert calls == [("resnet50",)]
        spans = [(seg.t_start, seg.t_end) for seg in tl.segments]
        assert spans == [(0.0, 60.0)]
        assert all("vgg16" not in seg.names for seg in tl.segments)

    def test_events_deferred_to_the_horizon_are_still_validated(self):
        with pytest.raises(ValueError, match="already active"):
            run_dynamic_scenario(
                [arrival(0.0, get_model("alexnet")),
                 arrival(30.0, get_model("alexnet"))],
                recording_planner(100.0)[0], PLATFORM, horizon=60.0,
            )


class TestScenarioEdgeCases:
    def test_departure_of_never_admitted_model_is_noop(self):
        a = get_model("resnet50")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), departure(50.0, get_model("vgg16"))],
            gpu_planner(), PLATFORM, horizon=100.0,
        )
        # The resident keeps running; the phantom model never appears.
        assert tl.potential_at("resnet50", 75.0) == pytest.approx(1.0)
        assert tl.potential_at("vgg16", 75.0) is None
        assert all("vgg16" not in seg.names for seg in tl.segments)

    def test_departure_from_empty_system(self):
        tl = run_dynamic_scenario(
            [departure(10.0, get_model("vgg16")),
             arrival(20.0, get_model("resnet50"))],
            gpu_planner(), PLATFORM, horizon=50.0,
        )
        assert tl.potential_at("resnet50", 40.0) == pytest.approx(1.0)

    def test_priority_event_for_absent_model_keeps_running(self):
        calls = []

        def recording_planner(workload, priorities):
            calls.append((tuple(m.name for m in workload),
                          np.array(priorities)))
            return MappingDecision(gpu_only_mapping(workload))

        a = get_model("resnet50")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), priority_change(50.0, {"vgg16": 0.9})],
            recording_planner, PLATFORM, horizon=100.0,
        )
        # The absent model's priority is recorded but does not leak into
        # the active workload's vector, and the timeline is unaffected.
        assert len(calls) == 2
        assert calls[1][0] == ("resnet50",)
        assert calls[1][1][0] == pytest.approx(0.1)
        assert tl.potential_at("resnet50", 75.0) == pytest.approx(1.0)

    def test_coincident_events_produce_no_zero_length_segments(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b), departure(100.0, a),
             priority_change(100.0, {"vgg16": 0.8})],
            gpu_planner(), PLATFORM, horizon=200.0,
        )
        assert all(seg.duration > 0 for seg in tl.segments)
        for prev, nxt in zip(tl.segments, tl.segments[1:]):
            assert prev.t_end == pytest.approx(nxt.t_start)
        # After the coincident batch only vgg16 remains.
        assert tl.potential_at("resnet50", 150.0) is None
        assert tl.potential_at("vgg16", 150.0) == pytest.approx(1.0)

    def test_event_at_horizon_boundary_ignored(self):
        a = get_model("resnet50")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(150.0, get_model("vgg16"))],
            gpu_planner(), PLATFORM, horizon=100.0,
        )
        assert tl.segments[-1].t_end == pytest.approx(100.0)
        assert all("vgg16" not in seg.names for seg in tl.segments)


class TestTimelineQueries:
    def _timeline(self):
        a, b = get_model("resnet50"), get_model("vgg16")
        return run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b)], gpu_planner(),
            PLATFORM, horizon=200.0,
        )

    def test_series_has_nan_before_arrival(self):
        tl = self._timeline()
        times = np.array([50.0, 150.0])
        series = tl.potential_series("vgg16", times)
        assert np.isnan(series[0])
        assert series[1] > 0

    def test_time_average_throughput_positive(self):
        tl = self._timeline()
        assert tl.time_average_throughput() > 0

    def test_min_potential_skips_decision_gaps(self):
        """A DNN waiting unmapped (rate 0) through a decision gap is not
        running, so the gap does not count towards its minimum P."""
        a, b = get_model("resnet50"), get_model("vgg16")
        tl = run_dynamic_scenario(
            [arrival(0.0, a), arrival(100.0, b)], gpu_planner(10.0),
            PLATFORM, horizon=200.0,
        )
        assert tl.potential_at("resnet50", 5.0) == 0.0
        assert tl.potential_at("vgg16", 105.0) == 0.0
        # resnet50 runs alone, then shares the GPU with vgg16.
        shared = tl.potential_at("resnet50", 150.0)
        assert 0.0 < shared < 1.0
        assert tl.min_potential("resnet50") == pytest.approx(shared)
        assert tl.min_potential("vgg16") == pytest.approx(
            tl.potential_at("vgg16", 150.0))
        assert tl.min_potential("vgg16") > 0.0
        assert np.isnan(tl.min_potential("mobilenet"))

    def test_final_potentials_contains_both(self):
        tl = self._timeline()
        final = tl.final_potentials()
        assert set(final) == {"resnet50", "vgg16"}

    def test_segments_contiguous(self):
        tl = self._timeline()
        for prev, nxt in zip(tl.segments, tl.segments[1:]):
            assert prev.t_end == pytest.approx(nxt.t_start)
        assert tl.segments[-1].t_end == pytest.approx(200.0)


class TestLayering:
    def test_import_repro_sim_leaves_serving_layer_unloaded(self):
        """The event core sits below the serving loop that uses it:
        ``repro.sim`` must never import ``repro.serve``."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.sim; "
             "print(sorted(m for m in sys.modules if m == 'repro.serve' "
             "or m.startswith('repro.serve.')))"],
            capture_output=True, text=True, env=env, timeout=120)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"
