"""The three benchmark workloads: set-up, timed run, checks and quality.

Each workload is a batch of fixed work decided in one process on
simulated time.  ``build`` is the set-up the benchmark times as
``setup_s`` (inputs, trained artifacts, node descriptions); every call of
``run`` starts from fresh program state (caches, policies, embedding
memo), so a traced run repeats exactly what an untraced run did.

``run(state, clock, region)`` times each operation with
``clock.measure()`` (see ``calibration.py``), which collects garbage first
and scales the operation's wall time to the reference host speed, and
enters ``region()`` around the operation only, so a tracer records the
operations and not the checks that follow them.  Nothing here passes a
solver ``backend``: the program's default is what is measured.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import inputs
from calibration import Timing

import repro.serve as serve
import repro.serve.fleet as fleet
from repro.baselines import GpuBaseline
from repro.core import EstimatorPredictor, RankMap, RankMapConfig
from repro.hw import (dvfs_ladder, jetson_class, jetson_class_power,
                      orange_pi_5, orange_pi_5_power)
from repro.mapping.mapping import gpu_only_mapping
from repro.runner import Scenario, ScenarioRunner
from repro.search import MCTSConfig
from repro.sim import EvaluationCache
from repro.zoo import get_model

SEARCH_ITERATIONS = 40      # the runner's default budget, passed explicitly
SEARCH_ROLLOUTS = 2
CAPACITY = 4
FLEET_CAP_W = 40.0
FLEET_BROWNOUT_W = 18.0
FLEET_DVFS = (1.0, 0.8, 0.65)
FLEET_NODES = 6
FLEET_PASSES = 12           # serve_fleet calls per run, each on fresh nodes
# Seed of the serving loop's pool-model draws on serve_learned, fixed like
# its trace's event order (see inputs.serve_trace_inputs): which models are
# live decides the replans' search size as much as the trace does.
SERVE_POOL_SEED = 0

_clock = time.perf_counter


@dataclass
class RunResult:
    """What one run decided and how long its operations took."""

    attempted: int = 0
    failed: int = 0
    decision: list[Timing] = field(default_factory=list)
    ops: int = 0                  # plans or sessions decided ...
    wall: Timing = field(default_factory=Timing)    # ... in this time
    decisions: list = field(default_factory=list)   # (models, mapping)
    quality: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    digest: str = ""              # of the reports: equal across runs


def _fail(result: RunResult, what: str, count: int = 1) -> None:
    result.failed += count
    print(f"check failed: {what}", file=sys.stderr)


def _timed_replans(policy, clock, result: RunResult):
    """Time each ``replan`` the serving loop makes on ``policy``.

    Wraps the instance attribute, which the loop looks up per call; the
    decided mappings are kept for the quality metrics.
    """
    inner = policy.replan

    def replan(workload, priorities, incumbent):
        with clock.measure() as timing:
            outcome = inner(workload, priorities, incumbent)
        result.decision.append(timing)
        result.decisions.append((tuple(workload), outcome.mapping))
        return outcome

    policy.replan = replan
    return policy


@contextlib.contextmanager
def _timed_dispatch(times: list[float]):
    """Time the fleet's planning decision: its ``plan_dispatch`` call.

    Wraps the name ``serve_fleet`` looks up for the duration of the block;
    raises if the program no longer has it.
    """
    module = fleet.dispatch
    inner = module.plan_dispatch

    def plan_dispatch(*args, **kwargs):
        start = _clock()
        plan = inner(*args, **kwargs)
        times.append(_clock() - start)
        return plan

    module.plan_dispatch = plan_dispatch
    try:
        yield
    finally:
        module.plan_dispatch = inner


def _decision_quality(result: RunResult, platform, cache) -> None:
    """``norm_throughput`` and ``min_potential`` of decided mappings.

    Each decided mapping's mean rate is divided by the GPU-only mapping's
    on the same models; rates come from the simulator through ``cache``.
    Invalid mappings and non-finite or negative rates fail the decision.
    """
    ratios, worst = [], math.inf
    for models, mapping in result.decisions:
        try:
            mapping.validate_against(list(models), platform.num_components)
        except ValueError as exc:
            _fail(result, f"decided mapping: {exc}")
            continue
        gpu = gpu_only_mapping(list(models))
        decided, reference = cache.simulate(list(models), [mapping, gpu])
        if not (np.all(np.isfinite(decided.rates))
                and np.all(decided.rates >= 0)):
            _fail(result, f"rates of {[m.name for m in models]}")
            continue
        ratios.append(decided.rates.mean() / reference.rates.mean())
        worst = min(worst, float(decided.potentials.min()))
    result.quality["norm_throughput"] = float(np.mean(ratios)) \
        if ratios else 0.0
    result.quality["min_potential"] = worst if ratios else 0.0
    result.samples["norm_throughput"] = len(ratios)
    result.samples["min_potential"] = sum(len(m) for m, _ in
                                          result.decisions)


def fleet_pools() -> list[tuple[str, ...]]:
    """One 4-model pool per fleet node, fixed across seeds.

    Node ``i`` takes every sixth model of :func:`inputs.sized_pool` from
    position ``i``, so each pool spans small to large models.
    """
    pool = inputs.sized_pool()
    return [tuple(pool[(index + FLEET_NODES * k) % len(pool)]
                  for k in range(4)) for index in range(FLEET_NODES)]


class PlanSweep:
    """Cold-cache RankMap_D plans through ``execute_scenario``."""

    name = "plan_sweep"

    def build(self, seed: int, seconds: float) -> dict:
        cases = inputs.plan_cases(seed, seconds)
        scenarios = [Scenario(name=f"mix{i}", workload=mix, seed=s,
                              search_iterations=SEARCH_ITERATIONS,
                              search_rollouts=SEARCH_ROLLOUTS)
                     for i, (mix, s) in enumerate(cases)]
        models = {name: get_model(name) for mix, _ in cases for name in mix}
        return {"scenarios": scenarios, "models": models,
                "digest": inputs.digest(cases)}

    def run(self, state: dict, clock,
            region=contextlib.nullcontext) -> RunResult:
        """Plan every mix once, each plan timed on its own."""
        result = RunResult()
        runner = ScenarioRunner(max_workers=1)
        platform = orange_pi_5()
        planned = []
        for scenario in state["scenarios"]:
            result.attempted += 1
            try:
                with clock.measure() as timing, region():
                    [plan] = runner.run([scenario])
            except Exception:
                traceback.print_exc()
                _fail(result, f"{scenario.name} raised")
                continue
            result.decision.append(timing)
            planned.append(plan)
        result.ops = len(planned)
        result.wall = Timing(sum(t.raw_s for t in result.decision),
                             sum(t.scaled_s for t in result.decision))
        result.digest = inputs.digest(
            [(p.workload, p.assignments, p.rates) for p in planned])
        models = state["models"]
        result.decisions = [(tuple(models[n] for n in p.workload),
                             p.mapping) for p in planned]
        _decision_quality(result, platform, EvaluationCache(platform))
        return result


class ServeLearned:
    """One orange_pi_5 node; warm replans around estimator-scored RankMap_D."""

    name = "serve_learned"

    def build(self, seed: int, seconds: float) -> dict:
        from repro.experiments.common import ExperimentContext

        requests, horizon = inputs.serve_trace_inputs(seed, seconds)
        start = _clock()
        artifacts = ExperimentContext(
            "tiny", use_artifact_cache=False).artifacts
        train_s = _clock() - start
        return {"requests": requests, "horizon": horizon, "seed": seed,
                "artifacts": artifacts, "train_s": train_s,
                "digest": inputs.digest(requests)}

    def run(self, state: dict, clock,
            region=contextlib.nullcontext) -> RunResult:
        """Serve the trace once, timing the loop and each replan in it."""
        result = RunResult()
        platform = orange_pi_5()
        requests = state["requests"]
        policy, config, cache = self._fresh_node(state, platform, clock,
                                                 result)
        result.attempted = len(requests)
        try:
            with clock.measure() as wall, region():
                report = serve.serve_trace(requests, policy, platform,
                                           config, cache=cache)
        except Exception:
            traceback.print_exc()
            _fail(result, "serve_trace raised", len(requests))
            return result
        missing = len({r.session_id for r in requests}
                      ^ {s.session_id for s in report.sessions})
        if missing:
            _fail(result, f"{missing} sessions without an outcome", missing)
        result.wall = wall
        result.ops = report.arrivals
        result.digest = inputs.digest(report.sessions)
        result.quality["sla_violation_pct"] = \
            report.sla_violation_fraction * 100.0
        result.samples["sla_violation_pct"] = report.arrivals
        _decision_quality(result, platform, cache)
        return result

    @staticmethod
    def _fresh_node(state: dict, platform, clock, result: RunResult):
        """Policy, serve config and cache of a node that has served nothing."""
        from repro.vqvae import EmbeddingCache

        artifacts = state["artifacts"]
        predictor = EstimatorPredictor(artifacts.estimator,
                                       EmbeddingCache(artifacts.vqvae))
        manager = RankMap(platform, predictor, RankMapConfig(
            mode="dynamic", mcts=MCTSConfig(
                iterations=SEARCH_ITERATIONS,
                rollouts_per_leaf=SEARCH_ROLLOUTS, seed=state["seed"])))
        policy = _timed_replans(serve.build_replan_policy("warm", manager),
                                clock, result)
        config = serve.ServeConfig(
            horizon_s=state["horizon"],
            admission=serve.AdmissionConfig(
                capacity=CAPACITY, preemption="evict_lowest_tier"),
            seed=SERVE_POOL_SEED)
        return policy, config, EvaluationCache(platform)


class FleetPower:
    """Six GPU-only nodes under a 40 W cap with a brownout and a failure.

    One run serves the same trace :data:`FLEET_PASSES` times, each time on
    fresh nodes, and checks that every pass decides exactly what the first
    did; the fleet's decision (its ``plan_dispatch`` call) and the whole
    ``serve_fleet`` call are read as their medians over the passes.
    """

    name = "fleet_power"

    def build(self, seed: int, seconds: float) -> dict:
        requests, horizon = inputs.fleet_trace_inputs(seed, seconds)
        nodes, ladders = [], []
        for index, pool in enumerate(fleet_pools()):
            if index % 2 == 0:
                platform, power = orange_pi_5(), orange_pi_5_power()
            else:
                platform, power = jetson_class(), jetson_class_power()
            spec = fleet.NodeSpec(
                name=f"node{index}", capacity=CAPACITY,
                speed=fleet.node_speed(platform, pool),
                fail_at_s=0.6 * horizon if index == 0 else None)
            nodes.append((spec, platform, pool))
            ladders.append(dvfs_ladder(power, FLEET_DVFS))
        power = fleet.FleetPowerConfig(
            ladders=tuple(ladders), cap_w=FLEET_CAP_W,
            cap_shift=(0.5 * horizon, FLEET_BROWNOUT_W))
        return {"requests": requests, "horizon": horizon,
                "nodes": nodes, "power": power, "seed": seed,
                "digest": inputs.digest(requests)}

    def run(self, state: dict, clock,
            region=contextlib.nullcontext) -> RunResult:
        result = RunResult()
        requests = state["requests"]
        passes = []
        for index in range(FLEET_PASSES):
            nodes = self._fresh_nodes(state)
            result.attempted += len(requests)
            calls = []
            try:
                with clock.measure() as timing, region(), \
                        _timed_dispatch(calls):
                    report = fleet.serve_fleet(
                        requests, nodes, "least_joules", state["horizon"],
                        power=state["power"])
            except Exception:
                traceback.print_exc()
                _fail(result, "serve_fleet raised", len(requests))
                continue
            if len(calls) != 1:
                _fail(result, f"serve_fleet called plan_dispatch "
                              f"{len(calls)} times", len(requests))
                continue
            self._check(result, report, len(requests))
            digest = self._digest(report)
            if result.digest and digest != result.digest:
                _fail(result, f"pass {index} decided differently from the "
                              "first", len(requests))
                continue
            result.digest = digest
            passes.append(timing)
            scale = timing.scaled_s / timing.raw_s
            result.decision.append(Timing(calls[0], calls[0] * scale))
            result.ops = report.arrivals
            result.quality["sla_violation_pct"] = \
                report.sla_violation_fraction * 100.0
            result.samples["sla_violation_pct"] = report.arrivals
            result.quality["over_cap_ws"] = report.power.fleet_over_cap_ws
            result.samples["over_cap_ws"] = len(report.power.segments)
        if passes:
            result.wall = Timing(statistics.median(t.raw_s for t in passes),
                                 statistics.median(t.scaled_s
                                                   for t in passes))
        return result

    @staticmethod
    def _fresh_nodes(state: dict) -> list:
        nodes = []
        for index, (spec, platform, pool) in enumerate(state["nodes"]):
            config = serve.ServeConfig(
                horizon_s=state["horizon"],
                admission=serve.AdmissionConfig(capacity=CAPACITY),
                pool=pool, seed=state["seed"] + index)
            nodes.append(fleet.FleetNode(
                spec=spec, platform=platform,
                policy=serve.build_replan_policy("full", GpuBaseline()),
                config=config, cache=EvaluationCache(platform)))
        return nodes

    @staticmethod
    def _digest(report) -> str:
        ledger = report.power
        return inputs.digest(
            [[n.report.sessions for n in report.nodes], ledger.node_energy_ws,
             ledger.node_over_cap_ws, ledger.dvfs_transitions])

    @staticmethod
    def _check(result: RunResult, report, offered: int) -> None:
        # FleetReport.arrivals is routed - re-dispatched + lost + shed +
        # out-of-horizon: the fleet conserves sessions iff it is offered.
        if report.arrivals != offered:
            _fail(result, f"fleet accounts for {report.arrivals} of "
                          f"{offered} sessions",
                  abs(report.arrivals - offered))
        for node in report.nodes:
            if len(node.report.sessions) != node.routed:
                _fail(result, f"{node.name}: {len(node.report.sessions)} "
                              f"outcomes for {node.routed} routed sessions",
                      abs(len(node.report.sessions) - node.routed))
        ledger = report.power
        energy = math.fsum(s.watts * s.duration_s for s in ledger.segments)
        over = math.fsum(s.over_cap_ws for s in ledger.segments)
        if not (math.isclose(energy, ledger.fleet_energy_ws, rel_tol=1e-9)
                and math.isclose(over, ledger.fleet_over_cap_ws,
                                 rel_tol=1e-9, abs_tol=1e-9)):
            _fail(result, f"power ledger {ledger.fleet_energy_ws} Ws against "
                          f"{energy} Ws over its segments")


WORKLOADS = {w.name: w for w in (PlanSweep(), ServeLearned(), FleetPower())}
