"""What a scenario's roster keys build: its platform and power envelope,
its planning manager and the manager's rate predictor.

A module of its own so that the specs in :mod:`repro.runner.scenario`
can check their keys against these rosters when they are built, without
importing the process pool that runs them.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..baselines import GAConfig, GeneticManager, GpuBaseline, Mosaic, Odmdef, OmniBoost
from ..core.manager import Manager, RankMap, RankMapConfig
from ..core.predictor import EstimatorPredictor, OraclePredictor, RatePredictor
from ..estimator import ArtifactPlatformMismatch, load_estimator_artifact
from ..hw import (jetson_class, jetson_class_power, orange_pi_5,
                  orange_pi_5_power)
from ..hw.energy import PlatformPower
from ..hw.platform import Platform
from ..obs import NULL_RECORDER, Recorder
from ..obs.registry import PREDICTOR_DOWNGRADES
from ..search import MCTSConfig
from ..sim import EvaluationCache
from ..sim.cache import platform_fingerprint
from ..utils import lookup

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .scenario import Scenario

__all__ = ["MANAGER_SPECS", "PLATFORM_SPECS", "POWER_SPECS",
           "DVFS_MULTIPLIERS", "build_manager", "resolve_predictor"]

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
    ``scenario.estimator_path`` — that file and no other, so the weights
    that scored a run are the ones its spec names; a fine-tuned
    :func:`repro.estimator.refresh_artifact` child serves only once a
    spec names its path.

    Mirroring the ``cache_path`` rules, an artifact trained for a
    *different platform* downgrades to the oracle with a warning (whose
    message carries the artifact path and both platform fingerprints)
    plus a :data:`~repro.obs.registry.PREDICTOR_DOWNGRADES` counter tick
    on ``recorder`` — a heterogeneous fleet sharing one artifact path
    legitimately warms only the matching nodes — while a corrupt or
    missing artifact raises: the predictor choice changes reports, so a
    broken file must fail loudly rather than silently serve the wrong
    study.  The returned predictor reports its scoring metrics to
    ``recorder``.
    """
    kind = getattr(scenario, "predictor", "oracle")
    if kind == "oracle":
        predictor = OraclePredictor(platform, cache=cache)
        predictor.recorder = recorder
        return predictor
    path = Path(scenario.estimator_path)
    stat = path.stat()              # missing artifact: FileNotFoundError
    key = (str(path), stat.st_mtime_ns, stat.st_size,
           platform_fingerprint(platform))
    artifact = _ARTIFACT_MEMO.get(key)
    if artifact is None:
        try:
            artifact = load_estimator_artifact(path, platform)
        except ArtifactPlatformMismatch as exc:
            # Negative-memoise the mismatch too: the verdict is a pure
            # function of the key, and a heterogeneous fleet re-resolves
            # the same (artifact, platform) pair once per node slice — no
            # point re-unpickling the full weight payload each time.
            # Memoise a *fresh* exception carrying only the message: the
            # raised one's traceback frames would pin the unpickled
            # weight arrays in the memo for the process lifetime.
            artifact = ArtifactPlatformMismatch(str(exc))
        _ARTIFACT_MEMO[key] = artifact
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
    spec = lookup(MANAGER_SPECS, scenario.manager, "manager")
    return spec(platform, scenario, cache, recorder)
