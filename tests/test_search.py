"""Unit tests for the reward function and MCTS."""

import numpy as np
import pytest

from repro.hw import orange_pi_5
from repro.mapping import Mapping
from repro.search import (
    DISQUALIFIED,
    MCTS,
    MCTSConfig,
    RewardConfig,
    mapping_reward,
    random_search,
    thresholds_for,
)
from repro.zoo import get_model

PLATFORM = orange_pi_5()


class TestRewardConfig:
    def test_defaults_valid(self):
        cfg = RewardConfig()
        assert cfg.kind == "floor"
        assert cfg.mode == "relative"

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope"}, {"mode": "nope"}, {"threshold": -1},
        {"priority_gain": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RewardConfig(**kwargs)


class TestThresholds:
    def test_relative_scales_with_ideal(self):
        wl = [get_model("squeezenet_v2"), get_model("vgg16")]
        cfg = RewardConfig(kind="weighted", threshold=0.1)
        th = thresholds_for(wl, PLATFORM, cfg)
        ideals = [PLATFORM.ideal_throughput(m) for m in wl]
        np.testing.assert_allclose(th, 0.1 * np.array(ideals))

    def test_absolute_flat(self):
        wl = [get_model("squeezenet_v2"), get_model("vgg16")]
        cfg = RewardConfig(kind="weighted", mode="absolute", threshold=3.0)
        np.testing.assert_allclose(thresholds_for(wl, PLATFORM, cfg),
                                   [3.0, 3.0])

    def test_floor_raises_threshold_with_priority(self):
        wl = [get_model("squeezenet_v2"), get_model("vgg16")]
        cfg = RewardConfig(kind="floor", threshold=0.04, priority_gain=0.5)
        p = np.array([0.8, 0.2])
        th = thresholds_for(wl, PLATFORM, cfg, p)
        ideals = np.array([PLATFORM.ideal_throughput(m) for m in wl])
        np.testing.assert_allclose(th, (0.04 + 0.5 * p) * ideals)
        # Higher priority -> higher relative floor.
        assert th[0] / ideals[0] > th[1] / ideals[1]


class TestMappingReward:
    def test_weighted_sum(self):
        r = mapping_reward(np.array([10.0, 2.0]), np.array([0.3, 0.7]),
                           np.zeros(2), kind="weighted")
        assert r == pytest.approx(10 * 0.3 + 2 * 0.7)

    def test_weighted_with_ideals_uses_potentials(self):
        r = mapping_reward(np.array([10.0, 2.0]), np.array([0.5, 0.5]),
                           np.zeros(2), ideals=np.array([20.0, 4.0]),
                           kind="weighted")
        assert r == pytest.approx(0.5 * 0.5 + 0.5 * 0.5)

    def test_floor_kind_returns_mean_rate(self):
        r = mapping_reward(np.array([10.0, 2.0]), np.array([0.9, 0.1]),
                           np.zeros(2), kind="floor")
        assert r == pytest.approx(6.0)

    def test_disqualification(self):
        r = mapping_reward(np.array([10.0, 2.0]), np.array([0.5, 0.5]),
                           np.array([0.0, 3.0]))
        assert r == DISQUALIFIED

    def test_paper_fig4_example(self):
        """Fig. 4: th=3, p=(0.6,0.1,0.2,0.1); mapping 1 has a DNN below th
        and is disqualified, mapping 2 scores the weighted sum."""
        p = np.array([0.6, 0.1, 0.2, 0.1])
        th = np.full(4, 3.0)
        m1 = mapping_reward(np.array([6.0, 9.0, 2.0, 8.0]), p, th,
                            kind="weighted")
        m2 = mapping_reward(np.array([5.0, 7.0, 4.0, 7.0]), p, th,
                            kind="weighted")
        assert m1 == DISQUALIFIED
        assert m2 == pytest.approx(5 * 0.6 + 7 * 0.1 + 4 * 0.2 + 7 * 0.1)
        assert m2 == pytest.approx(5.2)  # the paper's number

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mapping_reward(np.zeros(2), np.zeros(3), np.zeros(2))


def _block_sum_evaluator(workload):
    """Deterministic toy objective: reward = count of blocks on component 1."""

    def evaluate(mappings):
        return np.array([
            sum(sum(1 for c in a if c == 1) for a in m.assignments)
            for m in mappings
        ], dtype=float)

    return evaluate


class TestMCTS:
    def _workload(self):
        return [get_model("alexnet"), get_model("squeezenet_v2")]

    def test_search_returns_valid_mapping(self):
        wl = self._workload()
        mcts = MCTS(wl, 3, _block_sum_evaluator(wl),
                    MCTSConfig(iterations=30, rollouts_per_leaf=2))
        mapping, stats = mcts.search()
        mapping.validate_against(wl, 3)
        assert stats.evaluations == 60

    def test_search_improves_over_random_start(self):
        """On the toy objective MCTS must find mappings dominated by
        component 1 (max reward = total blocks)."""
        wl = self._workload()
        total_blocks = sum(m.num_blocks for m in wl)
        mcts = MCTS(wl, 3, _block_sum_evaluator(wl),
                    MCTSConfig(iterations=200, rollouts_per_leaf=4, seed=1))
        _, stats = mcts.search()
        assert stats.best_reward >= 0.8 * total_blocks

    def test_more_budget_never_worse(self):
        wl = self._workload()
        small = MCTS(wl, 3, _block_sum_evaluator(wl),
                     MCTSConfig(iterations=10, seed=3)).search()[1]
        large = MCTS(wl, 3, _block_sum_evaluator(wl),
                     MCTSConfig(iterations=120, seed=3)).search()[1]
        assert large.best_reward >= small.best_reward

    def test_all_disqualified_still_returns_mapping(self):
        wl = self._workload()

        def reject_all(mappings):
            return np.full(len(mappings), DISQUALIFIED)

        mapping, stats = MCTS(wl, 3, reject_all,
                              MCTSConfig(iterations=5)).search()
        mapping.validate_against(wl, 3)
        assert stats.disqualified == stats.evaluations

    def test_deterministic_with_seed(self):
        wl = self._workload()
        m1, _ = MCTS(wl, 3, _block_sum_evaluator(wl),
                     MCTSConfig(iterations=20, seed=7)).search()
        m2, _ = MCTS(wl, 3, _block_sum_evaluator(wl),
                     MCTSConfig(iterations=20, seed=7)).search()
        assert m1.assignments == m2.assignments

    def test_rollout_persistence_reduces_fragmentation(self):
        wl = self._workload()
        sticky = MCTS(wl, 3, _block_sum_evaluator(wl),
                      MCTSConfig(iterations=1, rollouts_per_leaf=50,
                                 rollout_persistence=0.95, seed=0))
        loose = MCTS(wl, 3, _block_sum_evaluator(wl),
                     MCTSConfig(iterations=1, rollouts_per_leaf=50,
                                rollout_persistence=0.0, seed=0))

        def mean_stages(search):
            counts = []

            def record(mappings):
                counts.extend(len(m.stages()) for m in mappings)
                return np.zeros(len(mappings))

            search.evaluator = record
            search.search()
            return np.mean(counts)

        assert mean_stages(sticky) < mean_stages(loose) / 2

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            MCTS([], 3, lambda m: np.zeros(0))

    def test_bad_evaluator_shape_rejected(self):
        wl = self._workload()
        mcts = MCTS(wl, 3, lambda m: np.zeros(99), MCTSConfig(iterations=2))
        with pytest.raises(ValueError):
            mcts.search()


class TestRandomSearch:
    def test_finds_good_mapping_on_toy_objective(self):
        wl = [get_model("alexnet")]
        mapping, reward = random_search(
            wl, 3, _block_sum_evaluator(wl), evaluations=200,
            rng=np.random.default_rng(0),
        )
        mapping.validate_against(wl, 3)
        assert reward >= 6  # most of alexnet's 8 blocks on component 1

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            random_search([get_model("alexnet")], 3,
                          _block_sum_evaluator(None), 0,
                          np.random.default_rng(0))
