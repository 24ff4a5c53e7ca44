"""Failure injection: RankMap's behaviour when its learned parts misbehave.

The paper's "no starvation regardless of the workload" claim leans on the
estimator being right.  These tests feed the manager broken predictors —
noisy, adversarial, constant — and check which guarantees survive, and
that the board-validation hardening (re-measuring top-k candidates before
deployment) restores the starvation guarantee under estimator failure.
"""

import numpy as np
import pytest

from repro.core import OraclePredictor, RankMap, RankMapConfig, RatePredictor
from repro.hw import ComputeComponent, Platform, TransferLink, orange_pi_5
from repro.hw.component import default_efficiency
from repro.search import MCTSConfig
from repro.sim import simulate
from repro.zoo import get_model

PLATFORM = orange_pi_5()
FAST_MCTS = MCTSConfig(iterations=30, rollouts_per_leaf=3)


def wl(*names):
    return [get_model(n) for n in names]


class NoisyPredictor(RatePredictor):
    """Oracle rates corrupted by heavy multiplicative noise."""

    def __init__(self, platform, noise=1.0, seed=0):
        self._oracle = OraclePredictor(platform)
        self._noise = noise
        self._rng = np.random.default_rng(seed)

    def predict_batch(self, workload, mappings):
        rates = self._oracle.predict_batch(workload, mappings)
        jitter = self._rng.lognormal(0.0, self._noise, size=rates.shape)
        return rates * jitter

    @property
    def board_latency_per_eval(self):
        return 0.04


class AdversarialPredictor(RatePredictor):
    """Worst case: claims every mapping serves every DNN generously.

    The search degenerates to (seeded) arbitrary choice; whatever it
    returns looks qualified.  Only board validation can catch this.
    """

    def __init__(self, claimed_rate=25.0):
        self._claimed = claimed_rate

    def predict_batch(self, workload, mappings):
        return np.full((len(mappings), len(workload)), self._claimed)

    @property
    def board_latency_per_eval(self):
        return 0.04


class ZeroPredictor(RatePredictor):
    """Claims every mapping starves everything."""

    def predict_batch(self, workload, mappings):
        return np.zeros((len(mappings), len(workload)))

    @property
    def board_latency_per_eval(self):
        return 0.04


class TestNoisyEstimator:
    def test_moderate_noise_keeps_everyone_alive(self):
        workload = wl("alexnet", "squeezenet", "mobilenet")
        manager = RankMap(
            PLATFORM, NoisyPredictor(PLATFORM, noise=0.3),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                          board_validation_top_k=4),
        )
        decision = manager.plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        assert np.all(result.potentials > 0.02)

    def test_heavy_noise_with_validation_still_no_starvation(self):
        workload = wl("alexnet", "squeezenet", "resnet50")
        manager = RankMap(
            PLATFORM, NoisyPredictor(PLATFORM, noise=1.5),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                          board_validation_top_k=6),
        )
        decision = manager.plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        assert np.all(result.potentials > 0.02)


class TestAdversarialEstimator:
    def test_board_validation_beats_adversarial_predictor(self):
        """With validation on, the deployed mapping is chosen by measured
        reward, so a lying predictor cannot plant a starving mapping."""
        workload = wl("alexnet", "squeezenet", "mobilenet")
        validated = RankMap(
            PLATFORM, AdversarialPredictor(),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                          board_validation_top_k=8),
        )
        decision = validated.plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        assert np.all(result.potentials > 0.02)

    def test_validation_improves_on_blind_trust(self):
        """Measured reward of the validated plan is at least the blind
        plan's (same search seed): validation can only help."""
        workload = wl("alexnet", "squeezenet", "resnet50")
        blind = RankMap(
            PLATFORM, AdversarialPredictor(),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS),
        )
        validated = RankMap(
            PLATFORM, AdversarialPredictor(),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                          board_validation_top_k=8),
        )
        blind_t = simulate(workload, blind.plan(workload).mapping,
                           PLATFORM).average_throughput
        validated_t = simulate(workload, validated.plan(workload).mapping,
                               PLATFORM).average_throughput
        assert validated_t >= blind_t * 0.95

    def test_validation_cost_appears_in_decision_latency(self):
        workload = wl("alexnet", "squeezenet")
        config = RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                               board_validation_top_k=5)
        manager = RankMap(PLATFORM, AdversarialPredictor(), config)
        with_k = manager.plan(workload).decision_seconds
        blind = RankMap(PLATFORM, AdversarialPredictor(),
                        RankMapConfig(mode="dynamic", mcts=FAST_MCTS))
        without_k = blind.plan(workload).decision_seconds
        assert with_k >= without_k + 2.0  # at least one extra window


class TestSaturatedValidation:
    def test_all_disqualified_candidates_pick_max_margin(self):
        """When every validated candidate measures disqualified, the
        deployed mapping is the least-starving one, not blind trust."""
        workload = wl("squeezenet_v2", "inception_v4", "resnet50", "vgg16",
                      "densenet169")
        manager = RankMap(
            PLATFORM, AdversarialPredictor(),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                          board_validation_top_k=8),
        )
        decision = manager.plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        # The saturated 5-heavy-DNN workload may not clear the floors, but
        # the margin fallback must keep every DNN observably alive.
        assert np.all(result.potentials > 0.01)


class TestZeroEstimator:
    def test_relaxation_path_still_returns_valid_mapping(self):
        """Everything predicted starved: thresholds relax, search still
        returns a structurally valid mapping."""
        workload = wl("alexnet", "squeezenet")
        manager = RankMap(
            PLATFORM, ZeroPredictor(),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                          threshold_relaxations=2),
        )
        decision = manager.plan(workload)
        decision.mapping.validate_against(workload, PLATFORM.num_components)

    def test_zero_predictor_with_validation_recovers(self):
        workload = wl("alexnet", "squeezenet")
        manager = RankMap(
            PLATFORM, ZeroPredictor(),
            RankMapConfig(mode="dynamic", mcts=FAST_MCTS,
                          board_validation_top_k=8),
        )
        decision = manager.plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        assert np.all(result.potentials > 0.02)


def _two_component_platform() -> Platform:
    """The Orange Pi with its LITTLE cluster offline (failure scenario)."""
    base = orange_pi_5()
    return Platform(name="orange_pi_5_degraded",
                    components=base.components[:2], link=base.link)


class TestDegradedPlatform:
    def test_manager_plans_on_two_components(self):
        platform = _two_component_platform()
        workload = wl("alexnet", "squeezenet")
        manager = RankMap(platform, OraclePredictor(platform),
                          RankMapConfig(mode="dynamic", mcts=FAST_MCTS))
        decision = manager.plan(workload)
        decision.mapping.validate_against(workload, 2)
        result = simulate(workload, decision.mapping, platform)
        assert np.all(result.rates > 0)

    def test_single_component_platform_degenerates_to_baseline(self):
        base = orange_pi_5()
        platform = Platform(name="gpu_only",
                            components=base.components[:1], link=base.link)
        workload = wl("alexnet",)
        manager = RankMap(platform, OraclePredictor(platform),
                          RankMapConfig(mode="dynamic", mcts=FAST_MCTS))
        decision = manager.plan(workload)
        assert decision.mapping.components_used() == {0}

    def test_mapping_for_wrong_platform_rejected(self):
        platform = _two_component_platform()
        workload = wl("alexnet",)
        manager = RankMap(PLATFORM, OraclePredictor(PLATFORM),
                          RankMapConfig(mode="dynamic", mcts=FAST_MCTS))
        decision = manager.plan(workload)
        if 2 in decision.mapping.components_used():
            with pytest.raises(ValueError):
                decision.mapping.validate_against(workload, 2)


class TestPredictorContract:
    def test_estimator_capacity_guard(self):
        """EstimatorPredictor refuses workloads beyond its slot capacity."""
        from repro.core import EstimatorPredictor
        from repro.estimator import EstimatorConfig, ThroughputEstimator
        from repro.vqvae import EmbeddingCache, LayerVQVAE

        config = EstimatorConfig()
        estimator = ThroughputEstimator(np.random.default_rng(0), config)
        embedder = EmbeddingCache(LayerVQVAE(np.random.default_rng(0)))
        predictor = EstimatorPredictor(estimator, embedder)
        too_many = [get_model(n) for n in
                    ("alexnet", "vgg16", "resnet50", "squeezenet",
                     "mobilenet", "shufflenet")][: config.max_dnns + 1]
        from repro.mapping import gpu_only_mapping

        with pytest.raises(ValueError, match="exceeds estimator capacity"):
            predictor.predict_batch(too_many, [gpu_only_mapping(too_many)])
