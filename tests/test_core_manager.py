"""Unit tests for priorities, predictors, and the RankMap manager."""

import numpy as np
import pytest

from repro.core import (
    OraclePredictor,
    RankMap,
    RankMapConfig,
    dynamic_priorities,
    normalize_priorities,
    static_priorities,
)
from repro.core.power import PowerAwareRankMap
from repro.core.predictor import RatePredictor
from repro.hw import orange_pi_5, orange_pi_5_power
from repro.mapping import gpu_only_mapping, uniform_block_mapping
from repro.search import MCTSConfig, RewardConfig
from repro.search.reward import DISQUALIFIED
from repro.sim import simulate
from repro.zoo import get_model

PLATFORM = orange_pi_5()
FAST_MCTS = MCTSConfig(iterations=25, rollouts_per_leaf=3)
TINY_MCTS = MCTSConfig(iterations=6, rollouts_per_leaf=2)


def wl(*names):
    return [get_model(n) for n in names]


class ConstantPredictor(RatePredictor):
    """Always predicts the same rate vector; counts predict() calls."""

    def __init__(self, rates):
        self.rates = np.asarray(rates, dtype=np.float64)
        self.calls = 0

    def predict(self, workload, mappings):
        self.calls += 1
        return np.tile(self.rates, (len(mappings), 1))

    @property
    def board_latency_per_eval(self):
        return 0.01


class InflatingOracle(RatePredictor):
    """Estimator-error stand-in: reports the simulator's rates x ``gain``."""

    def __init__(self, platform, gain=1000.0):
        self.oracle = OraclePredictor(platform)
        self.gain = gain

    def predict(self, workload, mappings):
        return self.oracle.predict(workload, mappings) * self.gain

    @property
    def board_latency_per_eval(self):
        return 0.01


class TestPriorities:
    def test_normalize(self):
        p = normalize_priorities([2.0, 6.0])
        np.testing.assert_allclose(p, [0.25, 0.75])

    @pytest.mark.parametrize("bad", [[], [-1.0, 2.0], [0.0, 0.0]])
    def test_normalize_validation(self, bad):
        with pytest.raises(ValueError):
            normalize_priorities(bad)

    def test_static_shape(self):
        p = static_priorities(4, critical_index=2, critical_weight=0.7)
        assert p[2] == pytest.approx(0.7)
        assert p.sum() == pytest.approx(1.0)
        assert np.allclose(np.delete(p, 2), 0.1)

    def test_static_single_dnn(self):
        np.testing.assert_allclose(static_priorities(1, 0), [1.0])

    def test_static_validation(self):
        with pytest.raises(ValueError):
            static_priorities(3, 5)
        with pytest.raises(ValueError):
            static_priorities(3, 0, critical_weight=1.5)

    def test_dynamic_proportional_to_demand(self):
        workload = wl("squeezenet_v2", "vgg16")
        p = dynamic_priorities(workload)
        assert p[1] > p[0]  # VGG-16 is far heavier
        assert p.sum() == pytest.approx(1.0)

    def test_dynamic_fig8_narrative(self):
        """Inception-ResNet-V1 must out-rank AlexNet/SqueezeNet (Fig. 8)."""
        workload = wl("inception_resnet_v1", "alexnet", "squeezenet")
        p = dynamic_priorities(workload)
        assert p.argmax() == 0

    def test_dynamic_empty_rejected(self):
        with pytest.raises(ValueError):
            dynamic_priorities([])


class TestOraclePredictor:
    def test_matches_simulator(self):
        workload = wl("alexnet", "squeezenet_v2")
        oracle = OraclePredictor(PLATFORM)
        mapping = gpu_only_mapping(workload)
        rates = oracle.predict(workload, [mapping])
        expected = simulate(workload, mapping, PLATFORM).rates
        np.testing.assert_allclose(rates[0], expected)

    def test_batch_shape(self):
        workload = wl("alexnet", "squeezenet_v2")
        rng = np.random.default_rng(0)
        mappings = [uniform_block_mapping(workload, 3, rng) for _ in range(4)]
        rates = OraclePredictor(PLATFORM).predict(workload, mappings)
        assert rates.shape == (4, 2)

    def test_board_latency_is_measurement_window(self):
        oracle = OraclePredictor(PLATFORM, measurement_window_s=1.5)
        assert oracle.board_latency_per_eval == 1.5


class TestRankMapConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RankMapConfig(mode="hybrid")

    def test_resolved_reward_dynamic_weights_raw_rates(self):
        """Dynamic mode runs the paper's literal Sec. IV-E objective."""
        cfg = RankMapConfig().resolved_reward()
        assert cfg.kind == "weighted"
        assert not cfg.normalize_by_ideal

    def test_resolved_reward_static_weights_potentials(self):
        cfg = RankMapConfig(mode="static").resolved_reward()
        assert cfg.kind == "weighted"
        assert cfg.normalize_by_ideal

    def test_explicit_reward_passthrough(self):
        cfg = RankMapConfig(reward=RewardConfig(kind="weighted"))
        assert cfg.resolved_reward().kind == "weighted"


class TestRankMapManager:
    def _dynamic(self):
        return RankMap(PLATFORM, OraclePredictor(PLATFORM),
                       RankMapConfig(mode="dynamic", mcts=FAST_MCTS))

    def _static(self):
        return RankMap(PLATFORM, OraclePredictor(PLATFORM),
                       RankMapConfig(mode="static", mcts=FAST_MCTS))

    def test_plan_returns_valid_mapping(self):
        workload = wl("alexnet", "squeezenet_v2", "resnet50")
        decision = self._dynamic().plan(workload)
        decision.mapping.validate_against(workload, 3)
        assert decision.decision_seconds > 0

    def test_dynamic_mode_never_starves(self):
        workload = wl("squeezenet_v2", "inception_v4", "resnet50", "vgg16")
        decision = self._dynamic().plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        assert (result.potentials >= 0.02).all()

    def test_static_mode_requires_priorities(self):
        with pytest.raises(ValueError):
            self._static().plan(wl("alexnet"))

    def test_static_mode_boosts_critical_dnn(self):
        workload = wl("squeezenet_v2", "inception_v4", "resnet50", "vgg16")
        manager = RankMap(
            PLATFORM, OraclePredictor(PLATFORM),
            RankMapConfig(mode="static",
                          mcts=MCTSConfig(iterations=70, rollouts_per_leaf=4)),
        )
        p = static_priorities(4, critical_index=1)
        decision = manager.plan(workload, p)
        result = simulate(workload, decision.mapping, PLATFORM)
        base = simulate(workload, gpu_only_mapping(workload), PLATFORM)
        assert result.potentials[1] > 1.5 * base.potentials[1]

    def test_static_priority_length_validated(self):
        with pytest.raises(ValueError):
            self._static().plan(wl("alexnet"), np.array([0.5, 0.5]))

    def test_outperforms_baseline_throughput(self):
        workload = wl("squeezenet_v2", "resnet50", "mobilenet")
        decision = self._dynamic().plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        base = simulate(workload, gpu_only_mapping(workload), PLATFORM)
        assert result.average_throughput > base.average_throughput

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            self._dynamic().plan([])

    def test_stats_and_wall_clock_recorded(self):
        manager = self._dynamic()
        manager.plan(wl("alexnet", "mobilenet"))
        assert manager.last_stats is not None
        assert manager.last_stats.evaluations > 0
        assert manager.last_wall_seconds > 0
        assert manager.last_priorities is not None

    def test_names_reflect_mode(self):
        assert self._static().name == "rankmap_s"
        assert self._dynamic().name == "rankmap_d"

    def test_config_instances_not_shared(self):
        """Defaulted configs must be fresh per manager (no mutable-default
        aliasing between instances)."""
        a = RankMap(PLATFORM, OraclePredictor(PLATFORM))
        b = RankMap(PLATFORM, OraclePredictor(PLATFORM))
        assert a.config is not b.config


class TestThresholdRelaxation:
    """The plan() retry loop when nothing clears the starvation floors."""

    def _manager(self, predictor, threshold, relaxations=2):
        reward = RewardConfig(kind="weighted", mode="absolute",
                              threshold=threshold, normalize_by_ideal=False)
        return RankMap(PLATFORM, predictor,
                       RankMapConfig(mode="dynamic", mcts=TINY_MCTS,
                                     reward=reward,
                                     threshold_relaxations=relaxations))

    def test_relaxation_exhausts_and_returns_best_effort(self):
        """Floors no mapping can clear: every relaxation retry runs, and
        the decision still returns a valid (best-effort) mapping."""
        workload = wl("alexnet", "mobilenet")
        predictor = ConstantPredictor([10.0, 10.0])
        manager = self._manager(predictor, threshold=1e9, relaxations=2)
        decision = manager.plan(workload)
        decision.mapping.validate_against(workload, PLATFORM.num_components)
        assert manager.last_stats.best_reward <= DISQUALIFIED
        # 1 initial search + 2 relaxation retries, each TINY_MCTS budget.
        assert predictor.calls == 3 * TINY_MCTS.iterations

    def test_relaxation_recovers_qualifying_mapping(self):
        """A floor just above the achievable rate qualifies after one
        halving."""
        workload = wl("alexnet", "mobilenet")
        predictor = ConstantPredictor([10.0, 10.0])
        manager = self._manager(predictor, threshold=15.0, relaxations=2)
        decision = manager.plan(workload)
        decision.mapping.validate_against(workload, PLATFORM.num_components)
        assert manager.last_stats.best_reward > DISQUALIFIED
        # Initial search failed (10 <= 15), one retry succeeded (10 > 7.5).
        assert predictor.calls == 2 * TINY_MCTS.iterations

    def test_no_relaxation_when_first_search_qualifies(self):
        workload = wl("alexnet", "mobilenet")
        predictor = ConstantPredictor([10.0, 10.0])
        manager = self._manager(predictor, threshold=5.0)
        manager.plan(workload)
        assert manager.last_stats.best_reward > DISQUALIFIED
        assert predictor.calls == TINY_MCTS.iterations


class TestBoardValidationMarginFallback:
    """_validate_on_board when every candidate *measures* disqualified."""

    def _plan(self, threshold, power=False):
        workload = wl("alexnet", "mobilenet")
        reward = RewardConfig(kind="weighted", mode="absolute",
                              threshold=threshold, normalize_by_ideal=False)
        config = RankMapConfig(mode="dynamic", mcts=FAST_MCTS, reward=reward,
                               threshold_relaxations=0,
                               board_validation_top_k=4)
        if power:
            manager = PowerAwareRankMap(PLATFORM, InflatingOracle(PLATFORM),
                                        orange_pi_5_power(), config)
        else:
            manager = RankMap(PLATFORM, InflatingOracle(PLATFORM), config)
        return workload, manager, manager.plan(workload)

    def _assert_margin_fallback(self, power):
        # The inflated predictor qualifies candidates that the board
        # measurement (true simulator) cannot: rates sit far below the
        # absolute floor, so validation must fall back to the best-margin
        # candidate instead of trusting the estimator's reward order.
        workload, manager, decision = self._plan(threshold=500.0,
                                                 power=power)
        stats = manager.last_stats
        assert stats.best_reward > DISQUALIFIED  # search believed it passed
        candidates = [m for _, m in stats.top_candidates[:4]]
        measured = [simulate(workload, m, PLATFORM) for m in candidates]
        thresholds = np.full(len(workload), 500.0)
        assert all(
            (r.rates <= thresholds).any() for r in measured
        ), "test setup must make every candidate measure disqualified"
        margins = [float((r.rates / thresholds).min()) for r in measured]
        expected = candidates[int(np.argmax(margins))]
        assert decision.mapping == expected

    def test_margin_fallback_selects_least_starved_candidate(self):
        self._assert_margin_fallback(power=False)

    def test_power_aware_margin_fallback(self):
        """PowerAwareRankMap validates through RankMap's rule: power
        pricing never rescues a candidate that measures disqualified."""
        self._assert_margin_fallback(power=True)

    def test_validation_keeps_reward_best_when_measurable(self):
        # With an achievable floor the normal path deploys the candidate
        # whose *measured* reward is best.
        workload, manager, decision = self._plan(threshold=0.01)
        stats = manager.last_stats
        candidates = [m for _, m in stats.top_candidates[:4]]
        thresholds = np.full(len(workload), 0.01)
        p = manager.last_priorities
        rewards = []
        for m in candidates:
            rates = simulate(workload, m, PLATFORM).rates
            rewards.append(DISQUALIFIED if (rates <= thresholds).any()
                           else float(rates @ p))
        expected = candidates[int(np.argmax(rewards))]
        assert decision.mapping == expected
