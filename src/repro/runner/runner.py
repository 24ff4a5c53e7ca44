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
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ..baselines import GAConfig, GeneticManager, GpuBaseline, Mosaic, Odmdef, OmniBoost
from ..core.manager import Manager, RankMap, RankMapConfig
from ..core.predictor import EstimatorPredictor, OraclePredictor, RatePredictor
from ..estimator import (ArtifactPlatformMismatch,
                         artifact_generation_candidates,
                         load_estimator_artifact)
from ..hw import (dvfs_ladder, jetson_class, jetson_class_power,
                  orange_pi_5, orange_pi_5_power)
from ..hw.energy import PlatformPower
from ..hw.platform import Platform
from ..obs import NULL_RECORDER, Recorder, TelemetryRecorder, merge_snapshots
from ..obs.registry import EVAL_CACHE_DOWNGRADES, PREDICTOR_DOWNGRADES
from ..search import MCTSConfig
from ..serve import AdmissionConfig, ServeConfig, build_replan_policy, serve_trace
from ..serve.fleet import (FleetPowerConfig, FleetRounds, NodeSpec,
                           node_speed)
from ..sim import EvaluationCache, simulate
from ..sim.cache import platform_fingerprint
from ..workloads import (SessionRequest, TraceConfig, iter_session_requests,
                         sample_session_requests)
from ..zoo import MODEL_POOL, get_model
from .scenario import (
    DynamicResult,
    DynamicScenario,
    FleetResult,
    FleetScenario,
    Scenario,
    ScenarioResult,
)

__all__ = ["ScenarioRunner", "MANAGER_SPECS", "PLATFORM_SPECS",
           "POWER_SPECS", "DVFS_MULTIPLIERS",
           "build_manager", "resolve_predictor", "execute_scenario",
           "execute_dynamic_scenario", "FleetNodeTask", "execute_fleet_node",
           "sample_fleet_requests"]

PLATFORM_SPECS: dict[str, Callable[[], Platform]] = {
    "orange_pi_5": orange_pi_5,
    "jetson_class": jetson_class,
}

#: Platform-key → power-envelope preset, mirroring :data:`PLATFORM_SPECS`
#: so a power-capped fleet node prices energy with the same board its
#: speed came from.
POWER_SPECS: dict[str, Callable[[], PlatformPower]] = {
    "orange_pi_5": orange_pi_5_power,
    "jetson_class": jetson_class_power,
}

#: Speed multipliers the runner's DVFS ladders are cut from;
#: ``FleetScenario.power_dvfs_levels`` takes a prefix of this tuple.
DVFS_MULTIPLIERS: tuple[float, ...] = (1.0, 0.8, 0.65, 0.5)


def _preset(specs: dict[str, Callable], key: str):
    """Build the ``specs`` preset (a platform or its power envelope) that
    the platform key ``key`` names; a key with no preset raises."""
    try:
        return specs[key]()
    except KeyError:
        raise ValueError(f"unknown platform {key!r}; "
                         f"choose from {sorted(specs)}") from None


#: Per-process memo of loaded estimator artifacts, keyed by
#: (path, mtime_ns, size, platform fingerprint) so every scenario a pool
#: worker executes against the same artifact file shares one rebuilt
#: estimator instead of unpickling per scenario.  Safe for determinism:
#: the loaded weights are a pure function of the key.
_ARTIFACT_MEMO: dict[tuple, object] = {}


def resolve_predictor(scenario, platform: Platform,
                      cache: EvaluationCache,
                      recorder: Recorder = NULL_RECORDER) -> RatePredictor:
    """Build the candidate-scoring predictor a scenario's spec names.

    ``"oracle"`` (and any spec without a ``predictor`` field, e.g. the
    static :class:`~repro.runner.Scenario`) measures candidates on the
    simulated board through the shared evaluation ``cache``.
    ``"estimator"`` loads the trained artifact at
    ``scenario.estimator_path`` and scores through the learned path.

    Fine-tuned **generations** are preferred automatically: when
    ``estimator_path`` names a family base, the newest compatible
    ``<stem>.gen<N><suffix>`` sibling
    (:func:`repro.estimator.artifact_generation_candidates`) wins over
    the base file, so a node picks up the latest
    :func:`repro.estimator.refresh_artifact` output without any spec
    change.  Naming a generation file directly pins that exact
    generation.  A generation trained for a different platform falls
    through to the next older candidate; only when *every* existing
    candidate mismatches does the scenario downgrade.

    Mirroring the ``cache_path`` rules, an artifact trained for a
    *different platform* downgrades to the oracle with a warning (whose
    message carries the artifact path and both platform fingerprints)
    plus a :data:`~repro.obs.registry.PREDICTOR_DOWNGRADES` counter tick
    on ``recorder`` — a heterogeneous fleet sharing one artifact path
    legitimately warms only the matching nodes — while a corrupt or
    missing artifact raises: the predictor choice changes reports, so a
    broken file must fail loudly rather than silently serve the wrong
    study (a corrupt *newer generation* therefore blocks the whole
    family rather than silently serving stale weights).  The returned
    predictor reports its scoring metrics to ``recorder``.
    """
    kind = getattr(scenario, "predictor", "oracle")
    if kind == "oracle":
        predictor = OraclePredictor(platform, cache=cache)
        predictor.recorder = recorder
        return predictor
    path = Path(scenario.estimator_path)
    fingerprint = platform_fingerprint(platform)
    artifact = None
    mismatch: ArtifactPlatformMismatch | None = None
    for candidate in artifact_generation_candidates(path):
        try:
            stat = candidate.stat()
        except FileNotFoundError:
            continue
        key = (str(candidate), stat.st_mtime_ns, stat.st_size, fingerprint)
        loaded = _ARTIFACT_MEMO.get(key)
        if loaded is None:
            try:
                loaded = load_estimator_artifact(candidate, platform)
            except ArtifactPlatformMismatch as exc:
                # Negative-memoise the mismatch too: the verdict is a pure
                # function of the key, and a heterogeneous fleet
                # re-resolves the same (artifact, platform) pair once per
                # node slice — no point re-unpickling the full weight
                # payload each time.  Memoise a *fresh* exception carrying
                # only the message: the raised one's traceback frames
                # would pin the unpickled weight arrays in the memo for
                # the process lifetime.
                loaded = ArtifactPlatformMismatch(str(exc))
            _ARTIFACT_MEMO[key] = loaded
        if isinstance(loaded, ArtifactPlatformMismatch):
            # Keep the newest mismatch for the downgrade warning but try
            # the next older generation — a heterogeneous fleet fine-tunes
            # per platform, so an incompatible child must not shadow a
            # compatible base.
            if mismatch is None:
                mismatch = loaded
            continue
        artifact = loaded
        break
    if artifact is None and mismatch is None:
        path.stat()             # missing artifact: FileNotFoundError
        raise FileNotFoundError(   # pragma: no cover - stat raises first
            f"no estimator artifact found for {path}")
    if artifact is None:
        artifact = mismatch
    if isinstance(artifact, ArtifactPlatformMismatch):
        # Force emission per call: fleet sweeps reuse node names across
        # cells, and the default warnings filter would dedupe the
        # byte-identical message after the first downgrade — silencing
        # exactly the substitution this warning exists to surface.  The
        # mismatch message carries the artifact path and both platform
        # fingerprints, so the warning pinpoints which file lost to
        # which board.
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.warn(
                f"scenario {scenario.name!r}: {artifact}; downgrading to "
                "the oracle predictor", stacklevel=2)
        if recorder.enabled:
            recorder.count(PREDICTOR_DOWNGRADES)
        predictor = OraclePredictor(platform, cache=cache)
        predictor.recorder = recorder
        return predictor
    if artifact.config.num_components != platform.num_components:
        # The fingerprint covers the platform only, not the estimator's
        # shapes — a Q tensor laid out for a different component count
        # would crash (or silently mis-place) deep inside the scatter.
        raise ValueError(
            f"estimator artifact {path} featurizes "
            f"{artifact.config.num_components} components but platform "
            f"{platform.name!r} has {platform.num_components}")
    capacity = getattr(scenario, "capacity", None)
    if capacity is not None:
        # Overcommitting preemption policies (renegotiation) admit past
        # capacity, so the live set can exceed it by the policy's
        # headroom — ask the policy itself rather than duplicating it.
        from ..serve.preempt import build_preemption_policy

        policy = build_preemption_policy(
            getattr(scenario, "preemption", "none"))
        peak = capacity + policy.max_overcommit
        if peak > artifact.config.max_dnns:
            raise ValueError(
                f"scenario {scenario.name!r} can reach {peak} concurrent "
                f"DNNs but the estimator artifact caps at "
                f"max_dnns={artifact.config.max_dnns}")
    predictor = EstimatorPredictor(artifact.estimator, artifact.embedder)
    predictor.recorder = recorder
    return predictor


def _mcts(scenario: Scenario) -> MCTSConfig:
    return MCTSConfig(iterations=scenario.search_iterations,
                      rollouts_per_leaf=scenario.search_rollouts,
                      seed=scenario.seed)


def _rankmap(mode: str):
    def build(platform: Platform, scenario: Scenario,
              cache: EvaluationCache,
              recorder: Recorder = NULL_RECORDER) -> Manager:
        return RankMap(platform,
                       resolve_predictor(scenario, platform, cache,
                                         recorder=recorder),
                       RankMapConfig(mode=mode, mcts=_mcts(scenario)))
    return build


MANAGER_SPECS: dict[str, Callable[..., Manager]] = {
    "baseline": lambda platform, scenario, cache, recorder=NULL_RECORDER:
        GpuBaseline(),
    "mosaic": lambda platform, scenario, cache, recorder=NULL_RECORDER:
        Mosaic(platform),
    "odmdef": lambda platform, scenario, cache, recorder=NULL_RECORDER:
        Odmdef(platform, seed=scenario.seed),
    "ga": lambda platform, scenario, cache, recorder=NULL_RECORDER:
        GeneticManager(platform, GAConfig(seed=scenario.seed)),
    "omniboost": lambda platform, scenario, cache, recorder=NULL_RECORDER:
        OmniBoost(platform,
                  resolve_predictor(scenario, platform, cache,
                                    recorder=recorder),
                  _mcts(scenario)),
    "rankmap_s": _rankmap("static"),
    "rankmap_d": _rankmap("dynamic"),
}


def build_manager(scenario: Scenario, platform: Platform,
                  cache: EvaluationCache,
                  recorder: Recorder = NULL_RECORDER) -> Manager:
    """Build the scenario's planning manager from its roster key.

    Every worker constructs its manager fresh from the spec (seeded by
    the scenario), which is what makes pool results order- and
    worker-count-independent.  ``recorder`` reaches the manager's rate
    predictor (:mod:`repro.obs`); planning decisions never depend on it.
    """
    try:
        spec = MANAGER_SPECS[scenario.manager]
    except KeyError:
        raise ValueError(
            f"unknown manager {scenario.manager!r}; "
            f"choose from {sorted(MANAGER_SPECS)}") from None
    return spec(platform, scenario, cache, recorder)


def execute_scenario(scenario: Scenario) -> ScenarioResult:
    """Run one scenario start-to-finish (also the process-pool worker)."""
    platform = _preset(PLATFORM_SPECS, scenario.platform)
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
    format) downgrades to a cold start instead of aborting: the cache
    only changes wall clock, never a report bit, and a heterogeneous
    fleet sharing one ``cache_path`` legitimately warms only the nodes
    the file matches.  ``eval_cache_preloaded == 0`` on the result is the
    signal that nothing was loaded.
    """
    platform = _preset(PLATFORM_SPECS, spec.platform)
    recorder: Recorder = (TelemetryRecorder(where=spec.name)
                          if spec.observe else NULL_RECORDER)
    preloaded = 0
    cache = None
    if spec.cache_path is not None and Path(spec.cache_path).exists():
        try:
            cache = EvaluationCache.load(spec.cache_path, platform)
            preloaded = len(cache)
        except (ValueError, KeyError, AttributeError, EOFError,
                pickle.UnpicklingError) as exc:
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

    pool = spec.pool if spec.pool else MODEL_POOL
    serve_config = ServeConfig(
        horizon_s=horizon_s,
        admission=AdmissionConfig(
            capacity=spec.capacity, queue_limit=spec.queue_limit,
            max_queue_wait_s=spec.max_queue_wait_s,
            preemption=spec.preemption),
        pool=pool, seed=spec.seed,
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
    pool = spec.pool if spec.pool else MODEL_POOL
    trace_config = TraceConfig(
        horizon_s=spec.horizon_s,
        arrival_rate_per_s=spec.arrival_rate_per_s,
        mean_session_s=spec.mean_session_s,
        max_concurrent=spec.capacity, pool=pool,
    )
    # Trace seed is decoupled from the search seed so policy/manager cells
    # of a sweep sharing `seed` see the same arrival process.  The demand
    # streams straight into the serving loop — a multi-day scenario never
    # holds its full trace in worker memory.
    requests = iter_session_requests(
        np.random.default_rng(spec.seed + 17), trace_config,
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
    trace_config = TraceConfig(
        horizon_s=fleet.horizon_s,
        arrival_rate_per_s=fleet.arrival_rate_per_s,
        mean_session_s=fleet.mean_session_s,
        max_concurrent=max(1, sum(n.capacity for n in fleet.nodes)),
    )
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
        platform = _preset(PLATFORM_SPECS, node.platform)
        pool = node.pool if node.pool else MODEL_POOL
        specs.append(NodeSpec(
            name=node.name, capacity=node.capacity,
            speed=node_speed(platform, pool),
            fail_at_s=fail_by_index.get(index)))
    return specs


def _fleet_power_config(fleet: FleetScenario) -> FleetPowerConfig | None:
    """The dispatcher power budget a scenario's power knobs describe.

    ``None`` when the fleet is not power-capped.  Each node's DVFS
    ladder is cut from its platform's :data:`POWER_SPECS` preset at the
    first ``power_dvfs_levels`` :data:`DVFS_MULTIPLIERS` operating
    points, so heterogeneous fleets throttle against heterogeneous
    envelopes.
    """
    if fleet.power_cap_w is None:
        return None
    multipliers = DVFS_MULTIPLIERS[:fleet.power_dvfs_levels]
    ladders = tuple(dvfs_ladder(_preset(POWER_SPECS, node.platform),
                                multipliers)
                    for node in fleet.nodes)
    return FleetPowerConfig(ladders=ladders,
                            cap_w=fleet.power_cap_w,
                            cap_shift=fleet.power_cap_shift,
                            shed_tiers=fleet.power_shed_tiers,
                            enforce=fleet.power_enforce)


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
        the :func:`_fleet_power_config` budget; the final round's
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
                                  _fleet_power_config(fleet))
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
