"""Tests for the fleet-scale scenario runner (specs, pool, determinism)."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from repro.experiments import ExperimentContext
from repro.runner import (
    MANAGER_SPECS,
    PLATFORM_SPECS,
    DynamicScenario,
    FleetScenario,
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    dynamic_sweep_scenarios,
    execute_dynamic_scenario,
    execute_scenario,
    fleet_sweep_scenarios,
    mix_scenarios,
    summarise,
    summarise_dynamic,
    summarise_fleet,
)

FAST = dict(search_iterations=6, search_rollouts=2)

SMALL_POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")

DYNAMIC_FAST = dict(horizon_s=240.0, arrival_rate_per_s=1 / 30,
                    mean_session_s=100.0, pool=SMALL_POOL, capacity=2,
                    search_iterations=6, search_rollouts=2)


class TestScenarioSpec:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name="x", workload=())

    def test_priority_length_validated(self):
        with pytest.raises(ValueError):
            Scenario(name="x", workload=("alexnet", "mobilenet"),
                     priorities=(1.0,))

    def test_specs_are_picklable(self):
        import pickle

        s = Scenario(name="x", workload=("alexnet",), **FAST)
        assert pickle.loads(pickle.dumps(s)) == s


#: Spec fields a worker would refuse, each refused when the spec is built:
#: (spec kind, field overrides, expected message).
_REFUSED_SPECS = (
    ("scenario", {"manager": "nope"}, "unknown manager 'nope'"),
    ("scenario", {"platform": "nope"}, "unknown platform 'nope'"),
    ("scenario", {"workload": ("alexnet", "nosuchnet")},
     "unknown model 'nosuchnet'"),
    ("dynamic", {"tier_shift_prob": 1.5}, "tier_shift_prob"),
    ("dynamic", {"queue_limit": -1}, "queue_limit"),
    ("dynamic", {"max_queue_wait_s": 0}, "max_queue_wait_s"),
    ("dynamic", {"pool": ("alexnet", "nosuchnet")},
     "unknown model 'nosuchnet'"),
    ("dynamic", {"policy": "nope"}, "unknown replan policy 'nope'"),
    ("dynamic", {"platform": "nope"}, "unknown platform 'nope'"),
    ("dynamic", {"manager": "nope"}, "unknown manager 'nope'"),
    ("fleet", {"routing": "nope"}, "unknown routing policy 'nope'"),
    ("fleet", {"tier_shift_prob": -0.5}, "tier_shift_prob"),
    # A shed tier off the SLA ladder matches no session: the fleet would
    # run and never shed.
    ("fleet", {"power_cap_w": 10.0, "power_shed_tiers": ("platinum",)},
     "unknown SLA tier 'platinum'"),
)


def _spec(kind, **fields):
    if kind == "scenario":
        return Scenario(**{"name": "s", "workload": ("alexnet",), **fields})
    if kind == "dynamic":
        return DynamicScenario(**{"name": "d", **fields})
    return FleetScenario(**{"name": "f", "nodes": (DynamicScenario("n"),),
                            **fields})


@pytest.mark.parametrize(
    "kind,fields,message", _REFUSED_SPECS,
    ids=["-".join((kind, *fields)) for kind, fields, _ in _REFUSED_SPECS])
def test_spec_refuses_what_its_worker_rejects(kind, fields, message):
    """A typo'd key fails when the sweep is built, not in the pool after
    the earlier cells ran."""
    _spec(kind)
    with pytest.raises(ValueError, match=message):
        _spec(kind, **fields)


class TestExecuteScenario:
    def test_baseline_scenario(self):
        s = Scenario(name="b", workload=("alexnet", "mobilenet"),
                     manager="baseline", **FAST)
        r = execute_scenario(s)
        assert r.manager == "baseline"
        assert r.mapping.num_dnns == 2
        assert len(r.rates) == 2 and min(r.rates) > 0
        assert r.average_throughput == pytest.approx(np.mean(r.rates))
        assert r.min_potential == pytest.approx(min(r.potentials))

    def test_static_rankmap_uses_priorities(self):
        s = Scenario(name="s", workload=("alexnet", "mobilenet"),
                     manager="rankmap_s", priorities=(0.8, 0.2), **FAST)
        r = execute_scenario(s)
        assert r.decision_seconds > 0

    def test_search_manager_reports_cache_use(self):
        s = Scenario(name="d", workload=("alexnet", "mobilenet"),
                     manager="rankmap_d", **FAST)
        r = execute_scenario(s)
        assert 0.0 <= r.cache_hit_rate <= 1.0

    def test_unknown_manager_rejected(self):
        with pytest.raises(ValueError, match="unknown manager"):
            execute_scenario(Scenario(name="x", workload=("alexnet",),
                                      manager="nope", **FAST))

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="unknown platform"):
            execute_scenario(Scenario(name="x", workload=("alexnet",),
                                      platform="nope", **FAST))

    def test_rosters_exposed(self):
        assert "rankmap_d" in MANAGER_SPECS
        assert "orange_pi_5" in PLATFORM_SPECS


class TestScenarioRunner:
    def _fleet(self):
        return mix_scenarios(("baseline", "rankmap_d"), sizes=(2,),
                             mixes_per_size=2, **FAST)

    def test_parallel_equals_serial(self):
        """Pool size must not affect any result bit."""
        fleet = self._fleet()
        serial = ScenarioRunner(max_workers=1).run(fleet)
        parallel = ScenarioRunner(max_workers=2).run(fleet)
        assert [(r.name, r.assignments, r.rates) for r in serial] \
            == [(r.name, r.assignments, r.rates) for r in parallel]

    def test_results_in_input_order(self):
        fleet = self._fleet()
        results = ScenarioRunner(max_workers=2).run(fleet)
        assert [r.name for r in results] == [s.name for s in fleet]

    def test_empty_run(self):
        assert ScenarioRunner().run([]) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ScenarioRunner(max_workers=0)


class TestDynamicScenario:
    def test_spec_validated(self):
        with pytest.raises(ValueError):
            DynamicScenario(name="x", horizon_s=0.0)
        with pytest.raises(ValueError):
            DynamicScenario(name="x", arrival_rate_per_s=0.0)
        with pytest.raises(ValueError):
            DynamicScenario(name="x", capacity=0)

    @pytest.mark.parametrize("capacity", [2.5, True, 0])
    def test_capacity_must_be_int(self, capacity):
        with pytest.raises(ValueError, match="capacity must be an int"):
            DynamicScenario(name="d", capacity=capacity)

    def test_specs_are_picklable(self):
        import pickle

        s = DynamicScenario(name="d", **DYNAMIC_FAST)
        assert pickle.loads(pickle.dumps(s)) == s

    def test_execute_produces_report(self):
        s = DynamicScenario(name="d", manager="rankmap_d", policy="warm",
                            **DYNAMIC_FAST)
        r = execute_dynamic_scenario(s)
        assert r.policy == "warm"
        assert r.report.arrivals > 0
        assert r.report.replans > 0
        assert r.wall_seconds > 0
        assert 0.0 <= r.eval_cache_hit_rate <= 1.0

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="unknown platform"):
            execute_dynamic_scenario(
                DynamicScenario(name="x", platform="nope", **DYNAMIC_FAST))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown replan policy"):
            execute_dynamic_scenario(
                DynamicScenario(name="x", policy="nope", **DYNAMIC_FAST))

    def test_parallel_equals_serial(self):
        """Satellite regression: the same DynamicScenario through 1 worker
        and N workers yields identical ServeReports."""
        specs = dynamic_sweep_scenarios(
            policies=("full", "warm"), managers=("rankmap_d",),
            traces_per_cell=1, horizon_s=240.0,
            arrival_rate_per_s=1 / 30, pool=SMALL_POOL, capacity=2,
            search_iterations=6)
        serial = ScenarioRunner(max_workers=1).run_dynamic(specs)
        parallel = ScenarioRunner(max_workers=2).run_dynamic(specs)
        assert [r.name for r in parallel] == [s.name for s in specs]
        assert [r.report for r in serial] == [r.report for r in parallel]

    def test_workers_load_persisted_cache(self, tmp_path):
        """Acceptance: a cache persisted by one run warms fresh worker
        processes, which report hit_rate > 0 on their first plans."""
        from repro.hw import orange_pi_5
        from repro.sim import EvaluationCache

        path = tmp_path / "cache.pkl"
        cold = DynamicScenario(name="warmup", manager="rankmap_d",
                               **DYNAMIC_FAST)
        platform = orange_pi_5()
        cache = EvaluationCache(platform)
        # Warm the cache inline with the identical spec, then persist it.
        from repro.runner.runner import build_manager
        from repro.serve import build_replan_policy, serve_trace, ServeConfig, AdmissionConfig
        from repro.workloads import TraceConfig, sample_session_requests

        manager = build_manager(cold, platform, cache)
        requests = sample_session_requests(
            np.random.default_rng(cold.seed + 17),
            TraceConfig(horizon_s=cold.horizon_s,
                        arrival_rate_per_s=cold.arrival_rate_per_s,
                        mean_session_s=cold.mean_session_s,
                        max_concurrent=cold.capacity, pool=SMALL_POOL))
        serve_trace(requests, build_replan_policy("full", manager), platform,
                    ServeConfig(horizon_s=cold.horizon_s,
                                admission=AdmissionConfig(capacity=2),
                                pool=SMALL_POOL, seed=cold.seed),
                    cache=cache)
        cache.save(path)

        warmed = [DynamicScenario(name=f"w{i}", manager="rankmap_d",
                                  cache_path=str(path), **DYNAMIC_FAST)
                  for i in range(2)]
        results = ScenarioRunner(max_workers=2).run_dynamic(warmed)
        for r in results:
            assert r.eval_cache_preloaded > 0
            assert r.eval_cache_hit_rate > 0

    def test_mismatched_cache_platform_starts_cold(self, tmp_path):
        """A cache persisted for one platform must not abort a node on
        another platform (heterogeneous fleets share one cache_path) —
        the node starts cold and reports nothing preloaded."""
        from repro.hw import orange_pi_5
        from repro.sim import EvaluationCache

        path = tmp_path / "orange.pkl"
        EvaluationCache(orange_pi_5()).save(path)
        spec = DynamicScenario(name="jet", manager="baseline",
                               platform="jetson_class",
                               cache_path=str(path), **DYNAMIC_FAST)
        result = execute_dynamic_scenario(spec)
        assert result.eval_cache_preloaded == 0
        assert result.report.arrivals > 0

    def test_corrupt_cache_file_starts_cold(self, tmp_path):
        """A non-pickle cache file must downgrade to a cold start too."""
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"not a pickle at all")
        spec = DynamicScenario(name="g", manager="baseline",
                               cache_path=str(path), **DYNAMIC_FAST)
        result = execute_dynamic_scenario(spec)
        assert result.eval_cache_preloaded == 0
        assert result.report.arrivals > 0

    def test_missing_module_cache_file_starts_cold(self, tmp_path):
        """A pickle that names a module this build lacks downgrades to a
        cold start with a warning, like any other unreadable file, and
        the run reports exactly what a cold run does."""
        path = tmp_path / "stale.pkl"
        path.write_bytes(b"cno_such_module_anywhere\nEntry\n.")
        spec = DynamicScenario(name="m", manager="baseline",
                               cache_path=str(path), **DYNAMIC_FAST)
        with pytest.warns(UserWarning, match="starting cold"):
            result = execute_dynamic_scenario(spec)
        assert result.eval_cache_preloaded == 0
        cold = execute_dynamic_scenario(
            dataclasses.replace(spec, cache_path=None))
        assert result.report == cold.report

    def test_summarise_dynamic_groups_by_policy(self):
        # "warm" needs a RankMap manager, so the cheap baseline cells use
        # the full and plan-cache policies.
        specs = dynamic_sweep_scenarios(
            policies=("full", "cache"), managers=("baseline",),
            traces_per_cell=2, horizon_s=240.0,
            arrival_rate_per_s=1 / 40, pool=SMALL_POOL, capacity=2,
            search_iterations=6)
        rows = summarise_dynamic(
            ScenarioRunner(max_workers=1).run_dynamic(specs))
        assert [(r["manager"], r["policy"]) for r in rows] == \
            [("baseline", "cache"), ("baseline", "full")]
        assert all(r["scenarios"] == 2 for r in rows)

    def test_cells_share_traces(self):
        specs = dynamic_sweep_scenarios(policies=("full", "warm"),
                                        traces_per_cell=2)
        by_trace = {}
        for s in specs:
            by_trace.setdefault(s.name.split("_")[0], set()).add(s.seed)
        assert all(len(seeds) == 1 for seeds in by_trace.values())

    def test_experiment_context_serve_sweep(self, tmp_path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        results, summary = ctx.serve_sweep(
            policies=("full",), managers=("baseline",), traces_per_cell=1,
            horizon_s=240.0, pool=SMALL_POOL, capacity=2, observe=True,
            max_workers=1)
        assert len(results) == 1
        assert summary[0]["policy"] == "full"
        assert results[0].report.arrivals > 0
        assert results[0].telemetry is not None


def _fleet_nodes(n=3):
    return tuple(DynamicScenario(
        name=f"node{i}", manager="rankmap_d", policy="warm",
        platform=("orange_pi_5" if i % 2 == 0 else "jetson_class"),
        seed=i, pool=SMALL_POOL, capacity=2,
        search_iterations=6, search_rollouts=2) for i in range(n))


def _fleet(routing="least_loaded", fail_at=()):
    return FleetScenario(name=f"f_{routing}", nodes=_fleet_nodes(),
                         routing=routing, seed=0, horizon_s=240.0,
                         arrival_rate_per_s=1 / 10, mean_session_s=90.0,
                         fail_at=fail_at)


class TestFleetScenario:
    def test_spec_validated(self):
        with pytest.raises(ValueError):
            FleetScenario(name="x", nodes=())
        with pytest.raises(ValueError):
            FleetScenario(name="x", nodes=_fleet_nodes(), horizon_s=0.0)
        with pytest.raises(ValueError):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          fail_at=((7, 10.0),))
        with pytest.raises(ValueError):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          fail_at=((0, 0.0),))
        with pytest.raises(ValueError, match="duplicate fail_at"):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          fail_at=((0, 60.0), (0, 200.0)))
        with pytest.raises(ValueError, match="fail_at time"):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          fail_at=((0, math.nan),))

    def test_specs_are_picklable(self):
        import pickle

        fleet = _fleet()
        assert pickle.loads(pickle.dumps(fleet)) == fleet

    def test_run_fleet_produces_report(self):
        results = ScenarioRunner(max_workers=1).run_fleet([_fleet()])
        assert len(results) == 1
        report = results[0].report
        assert results[0].routing == "least_loaded"
        assert len(report.nodes) == 3
        assert report.admitted > 0
        assert results[0].wall_seconds > 0

    def test_parallel_equals_serial(self):
        """Acceptance: fleet reports are bit-identical for 1 vs N workers."""
        fleets = [_fleet("round_robin"), _fleet("least_loaded"),
                  _fleet("tier_affinity", fail_at=((1, 120.0),))]
        serial = ScenarioRunner(max_workers=1).run_fleet(fleets)
        parallel = ScenarioRunner(max_workers=3).run_fleet(fleets)
        assert [r.name for r in parallel] == [f.name for f in fleets]
        assert [r.report for r in serial] == [r.report for r in parallel]

    def test_failure_redispatches_across_pool(self):
        results = ScenarioRunner(max_workers=2).run_fleet(
            [_fleet("round_robin", fail_at=((0, 60.0),))])
        report = results[0].report
        assert report.nodes[0].failed_at_s == 60.0
        assert report.nodes[0].report.horizon_s == 60.0

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            ScenarioRunner(max_workers=1).run_fleet(
                [_fleet(routing="nope")])

    def test_empty_run(self):
        assert ScenarioRunner().run_fleet([]) == []

    def test_fleet_sweep_cells_share_traces(self):
        specs = fleet_sweep_scenarios(
            routings=("round_robin", "least_loaded"), traces_per_cell=2,
            pool=SMALL_POOL, search_iterations=6)
        by_trace = {}
        for s in specs:
            by_trace.setdefault(s.name.split("_")[0], set()).add(s.seed)
        assert all(len(seeds) == 1 for seeds in by_trace.values())
        # Default platform pair makes any >=2-node fleet heterogeneous.
        assert len({n.platform for n in specs[0].nodes}) == 2

    def test_summarise_fleet_groups_by_routing(self):
        specs = fleet_sweep_scenarios(
            routings=("round_robin", "least_loaded"), traces_per_cell=1,
            num_nodes=2, manager="baseline", policy="full",
            horizon_s=240.0, arrival_rate_per_s=1 / 20,
            pool=SMALL_POOL, capacity=2, search_iterations=6)
        rows = summarise_fleet(
            ScenarioRunner(max_workers=1).run_fleet(specs))
        assert [r["routing"] for r in rows] == ["least_loaded",
                                                "round_robin"]
        assert all(r["scenarios"] == 1 for r in rows)

    def test_experiment_context_fleet_serve_sweep(self, tmp_path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        results, summary = ctx.fleet_serve_sweep(
            routings=("round_robin",), num_nodes=2, manager="baseline",
            policy="full", traces_per_cell=1, horizon_s=240.0,
            arrival_rate_per_s=1 / 20, pool=SMALL_POOL, capacity=2,
            power_cap_w=40.0, max_workers=1)
        assert len(results) == 1
        assert summary[0]["routing"] == "round_robin"
        assert results[0].report.admitted > 0
        assert results[0].report.power is not None


def _power_fleet(**kw):
    base = dict(name="powered", nodes=_fleet_nodes(), routing="least_joules",
                seed=0, horizon_s=240.0, arrival_rate_per_s=1 / 10,
                mean_session_s=90.0, power_cap_w=24.0)
    base.update(kw)
    return FleetScenario(**base)


class TestFleetPowerScenarios:
    def test_power_spec_validated(self):
        with pytest.raises(ValueError, match="power_cap_w"):
            _power_fleet(power_cap_w=0.0)
        with pytest.raises(ValueError, match="requires power_cap_w"):
            _power_fleet(power_cap_w=None,
                         power_cap_shift=(100.0, 10.0))
        with pytest.raises(ValueError, match="inside"):
            _power_fleet(power_cap_shift=(240.0, 10.0))
        with pytest.raises(ValueError, match="positive"):
            _power_fleet(power_cap_shift=(100.0, -1.0))
        with pytest.raises(ValueError, match="power_dvfs_levels"):
            _power_fleet(power_dvfs_levels=0)
        with pytest.raises(ValueError, match="power_dvfs_levels"):
            _power_fleet(power_dvfs_levels=9)
        # NaN compares false against everything: a NaN cap would mean
        # uncapped and a NaN brownout cap would never bind.  ``inf``
        # stays the legal account-only cap.
        with pytest.raises(ValueError, match="power_cap_w"):
            _power_fleet(power_cap_w=math.nan)
        with pytest.raises(ValueError, match="power_cap_shift"):
            _power_fleet(power_cap_shift=(100.0, math.nan))
        with pytest.raises(ValueError, match="power_cap_shift"):
            _power_fleet(power_cap_shift=(math.nan, 10.0))
        assert _power_fleet(power_cap_w=math.inf).power_cap_w == math.inf

    def test_power_capped_run_carries_ledger(self):
        result = ScenarioRunner(max_workers=1).run_fleet(
            [_power_fleet(power_cap_shift=(120.0, 10.0))])[0]
        report = result.report
        assert report.power is not None
        assert report.power.cap_shift == (120.0, 10.0)
        assert report.power.fleet_energy_ws > 0.0
        assert all(n.energy_ws is not None for n in report.nodes)
        rows = summarise_fleet([result])
        assert rows[0]["mean_fleet_watts"] > 0.0
        assert "over_cap_ws" in rows[0] and "shed" in rows[0]

    def test_degenerate_power_matches_power_off_node_reports(self):
        """cap=inf + a single DVFS level must not perturb serving: the
        governor only accounts, so per-node reports match the power-off
        run bit for bit."""
        import math

        powered = ScenarioRunner(max_workers=1).run_fleet(
            [_power_fleet(routing="least_loaded", power_cap_w=math.inf,
                          power_dvfs_levels=1)])[0].report
        plain = ScenarioRunner(max_workers=1).run_fleet(
            [_power_fleet(routing="least_loaded",
                          power_cap_w=None)])[0].report
        assert [n.report for n in powered.nodes] \
            == [n.report for n in plain.nodes]
        assert powered.shed == 0
        assert powered.power.fleet_over_cap_ws == 0.0
        assert plain.power is None

    def test_power_parallel_equals_serial(self):
        fleets = [_power_fleet(power_cap_shift=(120.0, 10.0),
                               fail_at=((1, 150.0),))]
        serial = ScenarioRunner(max_workers=1).run_fleet(fleets)
        parallel = ScenarioRunner(max_workers=3).run_fleet(fleets)
        assert [r.report for r in serial] == [r.report for r in parallel]


class TestMixScenariosAndSummarise:
    def test_managers_share_mixes(self):
        fleet = mix_scenarios(("baseline", "mosaic"), sizes=(3,),
                              mixes_per_size=2, **FAST)
        assert len(fleet) == 4
        by_mix = {}
        for s in fleet:
            by_mix.setdefault(s.name.rsplit("_", 1)[0], set()).add(s.workload)
        assert all(len(workloads) == 1 for workloads in by_mix.values())

    def test_summarise_groups_by_manager(self):
        def result(name, manager, rates):
            return ScenarioResult(
                name=name, manager=manager, platform="orange_pi_5",
                workload=("alexnet",), assignments=((0,),),
                decision_seconds=1.0, rates=rates,
                potentials=tuple(0.5 for _ in rates), wall_seconds=0.1)

        rows = summarise([
            result("a", "baseline", (2.0,)),
            result("b", "baseline", (4.0,)),
            result("c", "rankmap_d", (6.0,)),
        ])
        assert [r["manager"] for r in rows] == ["baseline", "rankmap_d"]
        assert rows[0]["scenarios"] == 2
        assert rows[0]["mean_throughput"] == pytest.approx(3.0)
        assert rows[1]["mean_throughput"] == pytest.approx(6.0)


@pytest.mark.parametrize("sweep, specs", [
    (mix_scenarios, (Scenario,)),
    (dynamic_sweep_scenarios, (DynamicScenario,)),
    (fleet_sweep_scenarios, (FleetScenario, DynamicScenario)),
    (ExperimentContext.serve_sweep, (DynamicScenario,)),
    (ExperimentContext.fleet_serve_sweep, (FleetScenario, DynamicScenario)),
], ids=["mix", "dynamic", "fleet", "ctx_serve", "ctx_fleet_serve"])
def test_sweeps_declare_no_spec_field(sweep, specs):
    """A sweep names only its grid axes and base seed; every spec field
    passes by name, so it has one declaration and one default."""
    named = {p.name for p in inspect.signature(sweep).parameters.values()
             if p.kind is not p.VAR_KEYWORD}
    spec_fields = {f.name for cls in specs for f in dataclasses.fields(cls)}
    assert named & spec_fields - {"seed"} == set()


PREEMPT_FAST = dict(horizon_s=240.0, arrival_rate_per_s=1 / 10,
                    mean_session_s=100.0, pool=SMALL_POOL, capacity=2,
                    queue_limit=6, search_iterations=6, search_rollouts=2)


class TestPreemptionScenarios:
    """Preemption wiring through specs and the process pool."""

    def test_preemption_spec_validated(self):
        with pytest.raises(ValueError, match="unknown preemption policy"):
            DynamicScenario(name="x", preemption="nope")

    def test_dynamic_from_dict_rejects_unknown_policy_value(self):
        """A spec built from a config dict rejects an unknown policy."""
        with pytest.raises(ValueError, match="unknown preemption policy"):
            DynamicScenario(**{"name": "d", "preemption": "nope"})

    def test_parallel_equals_serial_with_preemption(self):
        """Determinism regression: 1-vs-N-worker bit-identical reports
        with eviction and renegotiation enabled."""
        specs = [DynamicScenario(name=f"p_{key}_{seed}", manager="baseline",
                                 policy="full", seed=seed, preemption=key,
                                 **PREEMPT_FAST)
                 for key in ("evict_lowest_tier", "renegotiate")
                 for seed in (0, 1)]
        serial = ScenarioRunner(max_workers=1).run_dynamic(specs)
        parallel = ScenarioRunner(max_workers=2).run_dynamic(specs)
        assert [r.report for r in serial] == [r.report for r in parallel]
        # The saturating trace actually exercises both mechanisms.
        assert sum(r.report.evictions for r in serial
                   if "evict" in r.name) > 0
        assert sum(r.report.demotions for r in serial
                   if "renegotiate" in r.name) > 0

    def test_sweep_passes_preemption_through(self):
        specs = dynamic_sweep_scenarios(policies=("full",),
                                        managers=("baseline",),
                                        traces_per_cell=1,
                                        preemption="evict_lowest_tier",
                                        queue_limit=3, max_queue_wait_s=45.0,
                                        observe=True)
        assert all(s.preemption == "evict_lowest_tier" for s in specs)
        assert all((s.queue_limit, s.max_queue_wait_s, s.observe)
                   == (3, 45.0, True) for s in specs)
        fleets = fleet_sweep_scenarios(routings=("round_robin",),
                                       traces_per_cell=1, num_nodes=2,
                                       preemption="renegotiate")
        assert all(n.preemption == "renegotiate"
                   for f in fleets for n in f.nodes)
        # A typo'd field, or a field the grid sets per cell, is refused.
        for bad in ({"preemptoin": "none"}, {"name": "x"},
                    {"policy": "warm"}):
            with pytest.raises(TypeError):
                dynamic_sweep_scenarios(policies=("full",),
                                        traces_per_cell=1, **bad)
        for bad in ({"preemptoin": "none"}, {"name": "x"},
                    {"routing": "least_loaded"}, {"platform": "nope"}):
            with pytest.raises(TypeError):
                fleet_sweep_scenarios(routings=("round_robin",),
                                      traces_per_cell=1, **bad)

    def test_summarise_dynamic_reports_preemption(self):
        specs = [DynamicScenario(name="d", manager="baseline", policy="full",
                                 preemption="evict_lowest_tier",
                                 **PREEMPT_FAST)]
        rows = summarise_dynamic(
            ScenarioRunner(max_workers=1).run_dynamic(specs))
        assert rows[0]["evictions"] > 0
        assert 0.0 < rows[0]["mean_eviction_fairness"] <= 1.0

class TestEstimatorScenarios:
    """The learned predictor through specs and the process pool."""

    @pytest.fixture(scope="class")
    def artifact_path(self, tmp_path_factory):
        """A small trained-shape estimator artifact for the Orange Pi 5."""
        from repro.estimator import (
            EstimatorConfig,
            ThroughputEstimator,
            save_estimator_artifact,
        )
        from repro.hw import orange_pi_5
        from repro.vqvae import LayerVQVAE

        cfg = EstimatorConfig(max_dnns=4, max_layers=32, stem_channels=8,
                              block_channels=(8, 12, 16), attn_dim=8,
                              decoder_dim=12)
        path = tmp_path_factory.mktemp("artifact") / "estimator.pkl"
        save_estimator_artifact(
            path, ThroughputEstimator(np.random.default_rng(1), cfg),
            LayerVQVAE(np.random.default_rng(0)), orange_pi_5())
        return str(path)

    def test_predictor_spec_validated(self):
        with pytest.raises(ValueError, match="unknown predictor"):
            DynamicScenario(name="x", predictor="psychic")
        with pytest.raises(ValueError, match="requires estimator_path"):
            DynamicScenario(name="x", predictor="estimator")

    def test_dynamic_from_dict_rejects_unknown_predictor_value(self):
        """A spec built from a config dict rejects an unknown predictor."""
        with pytest.raises(ValueError, match="unknown predictor"):
            DynamicScenario(**{"name": "d", "predictor": "nope"})

    def test_parallel_equals_serial_with_estimator(self, artifact_path):
        """Determinism regression: 1-vs-N-worker bit-identical reports on
        the learned path (workers rebuild the predictor from the
        artifact), and the predictor genuinely changes the study — lower
        modeled decision latency than the oracle on the same traces."""
        est = [DynamicScenario(name=f"e_{policy}", manager="rankmap_d",
                               policy=policy, predictor="estimator",
                               estimator_path=artifact_path, **DYNAMIC_FAST)
               for policy in ("full", "warm")]
        serial = ScenarioRunner(max_workers=1).run_dynamic(est)
        parallel = ScenarioRunner(max_workers=2).run_dynamic(est)
        assert [r.report for r in serial] == [r.report for r in parallel]

        oracle = ScenarioRunner(max_workers=1).run_dynamic(
            [DynamicScenario(name=f"o_{policy}", manager="rankmap_d",
                             policy=policy, **DYNAMIC_FAST)
             for policy in ("full", "warm")])
        for e, o in zip(serial, oracle):
            assert e.report.replans > 0
            assert e.report.total_decision_seconds \
                < o.report.total_decision_seconds

    def test_sweeps_pass_predictor_through(self, artifact_path):
        specs = dynamic_sweep_scenarios(
            policies=("full",), managers=("rankmap_d",), traces_per_cell=1,
            predictor="estimator", estimator_path=artifact_path)
        assert all(s.predictor == "estimator"
                   and s.estimator_path == artifact_path for s in specs)
        fleets = fleet_sweep_scenarios(
            routings=("round_robin",), traces_per_cell=1, num_nodes=2,
            predictor="estimator", estimator_path=artifact_path)
        assert all(n.predictor == "estimator"
                   and n.estimator_path == artifact_path
                   for f in fleets for n in f.nodes)

    def test_experiment_context_trains_artifact_once(self, tmp_path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        path = ctx.estimator_artifact_path()
        assert path.exists()
        stamp = path.stat().st_mtime_ns
        assert ctx.estimator_artifact_path() == path
        assert path.stat().st_mtime_ns == stamp   # no retraining

    def test_experiment_context_estimator_serve_sweep(self, tmp_path):
        """Acceptance: a serve sweep on the learned path produces
        ServeReports whose per-decision latency sits far below the
        oracle's measurement-window pricing."""
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        results, summary = ctx.serve_sweep(
            policies=("warm",), managers=("rankmap_d",), traces_per_cell=1,
            horizon_s=180.0, pool=SMALL_POOL, max_workers=1,
            predictor="estimator")
        assert results[0].report.replans > 0
        # Warm replans price candidates at 0.04 s/eval; the oracle prices
        # the same rosters at 2 s/eval windows.
        assert 0.0 < summary[0]["mean_decision_seconds"] < 1.0

    def test_orphan_estimator_path_rejected(self, artifact_path):
        """estimator_path with the default oracle predictor would be
        silently ignored — a config slip that must fail loudly."""
        with pytest.raises(ValueError, match="silently ignored"):
            DynamicScenario(name="x", estimator_path=artifact_path,
                            **DYNAMIC_FAST)


class TestFleetFeedbackRuns:
    """PR: pressure-fed routing + drifted demand through the runner."""

    def _feedback_fleet(self, routing="pressure_feedback", rounds=2,
                        shift=None, fail_at=(), observe=False):
        import dataclasses

        nodes = tuple(dataclasses.replace(n, observe=observe)
                      for n in _fleet_nodes())
        return FleetScenario(
            name=f"fb_{routing}_{rounds}", nodes=nodes, routing=routing,
            seed=0, horizon_s=240.0, arrival_rate_per_s=1 / 8,
            mean_session_s=90.0, fail_at=fail_at, feedback_rounds=rounds,
            rate_shift=shift)

    def test_spec_validates_feedback_and_shift(self):
        with pytest.raises(ValueError, match="feedback_rounds"):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          feedback_rounds=-1)
        with pytest.raises(ValueError, match="feedback_rounds"):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          feedback_rounds=1.5)
        with pytest.raises(ValueError, match="rate_shift"):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          rate_shift=(100.0,))
        with pytest.raises(ValueError, match="rate_shift"):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          rate_shift=(0.0, 2.0))
        with pytest.raises(ValueError, match="rate_shift"):
            FleetScenario(name="x", nodes=_fleet_nodes(), horizon_s=240.0,
                          rate_shift=(240.0, 2.0))
        with pytest.raises(ValueError, match="rate_shift"):
            FleetScenario(name="x", nodes=_fleet_nodes(),
                          rate_shift=(100.0, 0.0))

    def test_rate_shift_drifts_the_trace(self):
        from repro.runner import sample_fleet_requests

        flat = self._feedback_fleet(rounds=0)
        drifted = self._feedback_fleet(rounds=0, shift=(120.0, 4.0))
        flat_tail = sum(1 for r in sample_fleet_requests(flat)
                        if r.arrival_s >= 120.0)
        drifted_tail = sum(1 for r in sample_fleet_requests(drifted)
                           if r.arrival_s >= 120.0)
        assert drifted_tail > 2 * flat_tail

    def test_rate_shift_requests_well_formed(self):
        from repro.runner import sample_fleet_requests

        requests = sample_fleet_requests(
            self._feedback_fleet(rounds=0, shift=(120.0, 3.0)))
        assert [r.session_id for r in requests] == list(range(len(requests)))
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a < 240.0 for a in arrivals)
        assert all(r.duration_s > 0 for r in requests)

    def test_rate_shift_sampling_is_deterministic(self):
        from repro.runner import sample_fleet_requests

        fleet = self._feedback_fleet(rounds=0, shift=(120.0, 2.0))
        assert sample_fleet_requests(fleet) == sample_fleet_requests(fleet)

    def test_parallel_equals_serial_with_feedback(self):
        """Acceptance: iterative pressure-fed dispatch — including the
        node-failure re-dispatch path and a drifted trace — stays
        bit-identical for 1 vs N workers, telemetry included."""
        fleets = [self._feedback_fleet(rounds=2, shift=(120.0, 2.0),
                                       fail_at=((1, 100.0),), observe=True),
                  self._feedback_fleet(rounds=0, observe=True)]
        serial = ScenarioRunner(max_workers=1).run_fleet(fleets)
        parallel = ScenarioRunner(max_workers=3).run_fleet(fleets)
        assert [r.report for r in serial] == [r.report for r in parallel]
        assert [r.telemetry for r in serial] \
            == [r.telemetry for r in parallel]
        assert serial[0].report.re_dispatched > 0

    def test_round_zero_reproduces_least_loaded_dispatch(self):
        """feedback_rounds=0 keeps the pressure router byte-for-byte on
        today's least_loaded dispatch (only the routing label differs)."""
        fed = ScenarioRunner(max_workers=1).run_fleet(
            [self._feedback_fleet(rounds=0)])[0]
        plain = ScenarioRunner(max_workers=1).run_fleet(
            [self._feedback_fleet(routing="least_loaded", rounds=0)])[0]
        assert [n.report for n in fed.report.nodes] \
            == [n.report for n in plain.report.nodes]

    def test_fleet_sweep_scenarios_passthrough(self):
        specs = fleet_sweep_scenarios(
            routings=("pressure_feedback",), traces_per_cell=1,
            num_nodes=2, pool=SMALL_POOL, search_iterations=6,
            observe=True, feedback_rounds=2, rate_shift=(300.0, 2.0),
            power_cap_w=40.0, power_dvfs_levels=2,
            power_shed_tiers=("bronze", "silver"), power_enforce=False)
        assert all(s.feedback_rounds == 2 for s in specs)
        assert all(s.rate_shift == (300.0, 2.0) for s in specs)
        assert all(node.observe for s in specs for node in s.nodes)
        assert all((s.power_cap_w, s.power_dvfs_levels, s.power_shed_tiers,
                    s.power_enforce) == (40.0, 2, ("bronze", "silver"), False)
                   for s in specs)
