"""Process-pool scenario execution.

:class:`ScenarioRunner` fans a list of :class:`~repro.runner.scenario.Scenario`
specs across worker processes.  Each worker rebuilds platform + manager from
the spec's registry keys (nothing heavier than a few strings crosses the
process boundary), plans, measures the decision with the simulator, and
returns a plain-data :class:`ScenarioResult`.  Results come back in input
order and are bit-identical regardless of ``max_workers`` — every manager
is freshly constructed from the scenario's seed, so no state leaks between
scenarios or workers.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ..obs import NULL_RECORDER, Recorder, TelemetryRecorder, merge_snapshots
from ..obs.registry import EVAL_CACHE_DOWNGRADES
from ..serve import ServeConfig, build_replan_policy, serve_trace
from ..serve.fleet import FleetRounds, NodeSpec, node_speed
from ..sim import EvaluationCache, simulate
from ..workloads import (SessionRequest, iter_session_requests,
                         sample_session_requests)
from ..zoo import MODEL_POOL, get_model
from .managers import PLATFORM_SPECS, build_manager
from .scenario import (
    DynamicResult,
    DynamicScenario,
    FleetResult,
    FleetScenario,
    Scenario,
    ScenarioResult,
)

__all__ = ["ScenarioRunner", "execute_scenario", "execute_dynamic_scenario",
           "FleetNodeTask", "execute_fleet_node", "sample_fleet_requests"]


def execute_scenario(scenario: Scenario) -> ScenarioResult:
    """Run one scenario start-to-finish (also the process-pool worker)."""
    platform = PLATFORM_SPECS[scenario.platform]()
    workload = [get_model(n) for n in scenario.workload]
    cache = EvaluationCache(platform)
    manager = build_manager(scenario, platform, cache)
    priorities = (np.asarray(scenario.priorities, dtype=np.float64)
                  if scenario.priorities is not None else None)

    t0 = time.perf_counter()
    decision = manager.plan(workload, priorities)
    wall = time.perf_counter() - t0
    result = simulate(workload, decision.mapping, platform)
    return ScenarioResult(
        name=scenario.name,
        manager=scenario.manager,
        platform=scenario.platform,
        workload=scenario.workload,
        assignments=decision.mapping.assignments,
        decision_seconds=float(decision.decision_seconds),
        rates=tuple(float(r) for r in result.rates),
        potentials=tuple(float(p) for p in result.potentials),
        wall_seconds=wall,
        cache_hit_rate=cache.hit_rate,
    )


def _serve_requests(spec: DynamicScenario,
                    requests: Iterable[SessionRequest],
                    horizon_s: float) -> DynamicResult:
    """Serve ``requests`` on the node ``spec`` describes.

    The shared core of :func:`execute_dynamic_scenario` (which samples its
    own trace from the spec) and :func:`execute_fleet_node` (whose trace
    slice the fleet dispatcher fixed in the parent process).  The
    evaluation cache is rebuilt per call — loaded from ``spec.cache_path``
    when that file exists and was built for this node's platform, fresh
    otherwise — so the report is a pure function of
    ``(spec, requests, horizon_s)`` regardless of which worker runs it or
    how warm it starts.

    An *incompatible* cache file (other platform's fingerprint, unknown
    format, corrupt or malformed payload: every such refusal of
    :meth:`EvaluationCache.load` is a ``ValueError``) downgrades to a
    cold start instead of aborting: the cache
    only changes wall clock, never a report bit, and a heterogeneous
    fleet sharing one ``cache_path`` legitimately warms only the nodes
    the file matches.  ``eval_cache_preloaded == 0`` on the result is the
    signal that nothing was loaded.
    """
    platform = PLATFORM_SPECS[spec.platform]()
    recorder: Recorder = (TelemetryRecorder(where=spec.name)
                          if spec.observe else NULL_RECORDER)
    preloaded = 0
    cache = None
    if spec.cache_path is not None and Path(spec.cache_path).exists():
        try:
            cache = EvaluationCache.load(spec.cache_path, platform)
            preloaded = len(cache)
        except ValueError as exc:
            cache = None   # wrong platform / unknown or corrupt format:
            #                start cold instead of aborting the sweep
            # `exc` carries the artifact path and, for fingerprint
            # mismatches, both platform fingerprints (EvaluationCache.load
            # builds that message) — surface it so a silently-cold sweep
            # node is diagnosable from the warning alone.
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.warn(
                    f"scenario {spec.name!r}: failed to load evaluation "
                    f"cache {spec.cache_path}: {exc}; starting cold",
                    stacklevel=2)
            if recorder.enabled:
                recorder.count(EVAL_CACHE_DOWNGRADES)
    if cache is None:
        cache = EvaluationCache(platform)
    manager = build_manager(spec, platform, cache, recorder=recorder)
    policy = build_replan_policy(spec.policy, manager)

    serve_config = ServeConfig(
        horizon_s=horizon_s, admission=spec.admission_config(),
        pool=spec.pool or MODEL_POOL, seed=spec.seed,
    )

    t0 = time.perf_counter()
    report = serve_trace(requests, policy, platform, serve_config,
                         cache=cache, recorder=recorder)
    wall = time.perf_counter() - t0
    return DynamicResult(
        name=spec.name, manager=spec.manager, platform=spec.platform,
        policy=spec.policy, report=report, wall_seconds=wall,
        eval_cache_hit_rate=cache.hit_rate,
        eval_cache_preloaded=preloaded,
        telemetry=recorder.snapshot(),
    )


def execute_dynamic_scenario(spec: DynamicScenario) -> DynamicResult:
    """Serve one stochastic trace start-to-finish (also the pool worker).

    Samples the spec's own Poisson demand, then defers to
    :func:`_serve_requests`; the report is a pure function of the spec
    regardless of which worker runs it or how warm its cache starts.
    """
    # Trace seed is decoupled from the search seed so policy/manager cells
    # of a sweep sharing `seed` see the same arrival process.  The demand
    # streams straight into the serving loop — a multi-day scenario never
    # holds its full trace in worker memory.
    requests = iter_session_requests(
        np.random.default_rng(spec.seed + 17), spec.trace_config(),
        tier_shift_prob=spec.tier_shift_prob)
    return _serve_requests(spec, requests, spec.horizon_s)


@dataclass(frozen=True)
class FleetNodeTask:
    """Process-pool payload: one fleet node plus its routed trace slice.

    Built in the parent by :meth:`ScenarioRunner.run_fleet` after the
    dispatch plan is fixed; ``horizon_s`` is already truncated to the
    node's failure instant when the scenario kills it mid-run.
    """

    spec: DynamicScenario
    requests: tuple[SessionRequest, ...]
    horizon_s: float


def execute_fleet_node(task: FleetNodeTask) -> DynamicResult:
    """Serve one dispatched node slice (also the pool worker)."""
    return _serve_requests(task.spec, list(task.requests), task.horizon_s)


def sample_fleet_requests(fleet: FleetScenario) -> list[SessionRequest]:
    """Sample the fleet's shared aggregate demand from its spec.

    The model pool is irrelevant at this stage — sessions pick their
    model at admission, per node — so the trace config only shapes
    arrivals, durations and tiers.  The ``seed + 17`` decoupling matches
    :func:`execute_dynamic_scenario`, keeping routing cells of a sweep
    that share a seed on identical arrival processes.

    A ``rate_shift`` drifts the demand mid-run: the trace is sampled in
    two segments from one rng stream — pre-shift at the base arrival
    rate, post-shift at ``rate * multiplier`` with arrival times and
    session ids re-based after the head — so two scenarios differing
    only in routing still see byte-identical drifted traces.  Each
    segment's blind concurrency cap and tier rotation restart at the
    shift instant (the drift is a change of *regime*, not a continuation
    of the old one).
    """
    trace_config = fleet.trace_config()
    rng = np.random.default_rng(fleet.seed + 17)
    if fleet.rate_shift is None:
        return sample_session_requests(
            rng, trace_config, tier_shift_prob=fleet.tier_shift_prob)
    shift_at, multiplier = fleet.rate_shift
    head = sample_session_requests(
        rng, replace(trace_config, horizon_s=shift_at),
        tier_shift_prob=fleet.tier_shift_prob)
    tail = sample_session_requests(
        rng, replace(trace_config,
                     horizon_s=fleet.horizon_s - shift_at,
                     arrival_rate_per_s=(fleet.arrival_rate_per_s
                                         * multiplier)),
        tier_shift_prob=fleet.tier_shift_prob)
    offset = len(head)
    return head + [
        SessionRequest(session_id=request.session_id + offset,
                       arrival_s=request.arrival_s + shift_at,
                       duration_s=request.duration_s,
                       tier=request.tier,
                       tier_shift=request.tier_shift)
        for request in tail]


def _fleet_node_specs(fleet: FleetScenario) -> list[NodeSpec]:
    """Dispatcher-side node specs: capacity from the scenario, speed from
    the platform preset's ideal throughput over the node's pool."""
    fail_by_index = dict(fleet.fail_at)
    specs = []
    for index, node in enumerate(fleet.nodes):
        platform = PLATFORM_SPECS[node.platform]()
        specs.append(NodeSpec(
            name=node.name, capacity=node.capacity,
            speed=node_speed(platform, node.pool or MODEL_POOL),
            fail_at_s=fail_by_index.get(index)))
    return specs


class ScenarioRunner:
    """Fan scenarios across a process pool; aggregate in input order.

    ``max_workers=None`` sizes the pool to the machine; ``max_workers=1``
    (or a single scenario) runs inline, which is what the regression tests
    compare against to pin down pool determinism.  :meth:`run` executes
    static planning scenarios, :meth:`run_dynamic` executes online-serving
    scenarios; both share the pool mechanics.
    """

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers

    def run(self, scenarios: Sequence[Scenario]) -> list[ScenarioResult]:
        """Execute static planning scenarios across the pool, input order."""
        return self._map(execute_scenario, list(scenarios))

    def run_dynamic(self,
                    scenarios: Sequence[DynamicScenario]) -> list[DynamicResult]:
        """Execute online-serving scenarios across the pool, input order."""
        return self._map(execute_dynamic_scenario, list(scenarios))

    def run_fleet(self,
                  fleets: Sequence[FleetScenario]) -> list[FleetResult]:
        """Execute fleet studies, fanning *nodes* across the process pool.

        Phase 1 runs in this process: each fleet samples its shared
        demand and its :class:`~repro.serve.fleet.FleetRounds` — the
        round loop :func:`repro.serve.fleet.serve_fleet` runs inline —
        fixes a deterministic dispatch plan.  Phase 2 flattens
        every fleet's node slices into one task list and maps it over the
        pool — so a 3-fleet x 4-node sweep keeps 12 workers busy — then
        regroups per fleet and rolls the node reports up into
        :class:`~repro.serve.fleet.FleetReport` objects.  Reports are
        bit-identical for any ``max_workers``.

        Fleets with ``feedback_rounds=N > 0`` re-dispatch iteratively:
        round ``k`` plans with the per-node pressure measured from round
        ``k-1``'s reports and the fleet's result is round ``N``'s.  The
        fleets' rounds step in lockstep, so mixed sweeps stay batched — each
        round flattens every still-active fleet's node slices into one
        pool map, and a fleet whose rounds are exhausted simply stops
        contributing tasks.  Only each fleet's *final* round records
        telemetry (intermediate rounds serve with ``observe=False``
        node specs and a null dispatch recorder), so snapshots — like
        reports — are a pure function of the scenario list.

        Power-capped fleets (``power_cap_w`` set) plan every round under
        the :meth:`~repro.runner.FleetScenario.power_config` budget; the
        final round's
        :class:`~repro.serve.fleet.FleetPowerReport` ledger lands on
        ``FleetReport.power``.  Because the governor runs entirely in
        phase 1, the power path inherits the same any-worker-count
        bit-identity.
        """
        fleets = list(fleets)
        all_rounds = [FleetRounds(sample_fleet_requests(fleet),
                                  _fleet_node_specs(fleet),
                                  [node.platform for node in fleet.nodes],
                                  fleet.routing, fleet.horizon_s,
                                  fleet.feedback_rounds,
                                  fleet.power_config())
                      for fleet in fleets]
        dispatch_snaps: list = [None] * len(fleets)
        node_results: list[list[DynamicResult]] = [[] for _ in fleets]
        while not all(rounds.done for rounds in all_rounds):
            active = [i for i, rounds in enumerate(all_rounds)
                      if not rounds.done]
            tasks: list[FleetNodeTask] = []
            for i in active:
                fleet, rounds = fleets[i], all_rounds[i]
                observing = (rounds.final
                             and any(n.observe for n in fleet.nodes))
                dispatch_recorder: Recorder = (
                    TelemetryRecorder(where=f"{fleet.name}/dispatch")
                    if observing else NULL_RECORDER)
                plan = rounds.dispatch(dispatch_recorder)
                dispatch_snaps[i] = dispatch_recorder.snapshot()
                for node, horizon, slice_requests in zip(
                        fleet.nodes, rounds.horizons, plan.node_requests):
                    node_spec = (node if rounds.final
                                 else replace(node, observe=False))
                    tasks.append(FleetNodeTask(spec=node_spec,
                                               requests=slice_requests,
                                               horizon_s=horizon))
            round_results = self._map(execute_fleet_node, tasks)
            cursor = 0
            for i in active:
                count = len(fleets[i].nodes)
                node_results[i] = round_results[cursor:cursor + count]
                cursor += count
                all_rounds[i].finish([r.report for r in node_results[i]])

        results: list[FleetResult] = []
        for fleet, rounds, dispatch_snap, slice_results in zip(
                fleets, all_rounds, dispatch_snaps, node_results):
            # Snapshots fold in a fixed order — dispatch phase first, then
            # nodes in fleet order — so telemetry is bit-identical for any
            # pool size, exactly like the reports themselves.
            snaps = ([dispatch_snap] if dispatch_snap is not None else [])
            snaps += [r.telemetry for r in slice_results
                      if r.telemetry is not None]
            telemetry = (merge_snapshots(snaps, where=fleet.name)
                         if snaps else None)
            results.append(FleetResult(
                name=fleet.name, routing=fleet.routing,
                report=rounds.report(),
                wall_seconds=sum(r.wall_seconds for r in slice_results),
                telemetry=telemetry))
        return results

    def _map(self, worker: Callable, scenarios: list) -> list:
        if not scenarios:
            return []
        workers = self.max_workers or min(len(scenarios),
                                          os.cpu_count() or 1)
        workers = min(workers, len(scenarios))
        if workers <= 1:
            return [worker(s) for s in scenarios]
        chunk = max(1, len(scenarios) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, scenarios, chunksize=chunk))
