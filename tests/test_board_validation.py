"""Tests for MCTS top-candidate tracking and RankMap board validation."""

import numpy as np
import pytest

from repro.core import OraclePredictor, RankMap, RankMapConfig
from repro.hw import orange_pi_5
from repro.mapping import Mapping
from repro.search import MCTS, MCTSConfig, MCTSStats
from repro.sim import simulate
from repro.zoo import get_model

PLATFORM = orange_pi_5()


class TestTopCandidates:
    def test_record_sorted_and_bounded(self):
        stats = MCTSStats()
        for i in range(12):
            stats.record_candidate(float(i), Mapping(((i % 3,),)), keep=5)
        assert len(stats.top_candidates) <= 5
        rewards = [r for r, _ in stats.top_candidates]
        assert rewards == sorted(rewards, reverse=True)

    def test_duplicates_ignored(self):
        stats = MCTSStats()
        m = Mapping(((0, 1),))
        stats.record_candidate(1.0, m)
        stats.record_candidate(2.0, Mapping(((0, 1),)))
        assert len(stats.top_candidates) == 1

    def test_search_populates_candidates(self):
        workload = [get_model("alexnet")]

        def evaluate(mappings):
            return np.array([
                float(sum(m.assignments[0])) for m in mappings
            ])

        mcts = MCTS(workload, 3, evaluate,
                    MCTSConfig(iterations=10, rollouts_per_leaf=2))
        _, stats = mcts.search()
        assert stats.top_candidates
        best_tracked = stats.top_candidates[0][0]
        assert best_tracked == pytest.approx(stats.best_reward)


class TestBoardValidation:
    def _noisy_predictor(self):
        """An oracle corrupted with multiplicative noise — a stand-in for
        an imperfect estimator."""
        oracle = OraclePredictor(PLATFORM)
        rng = np.random.default_rng(0)

        class Noisy(OraclePredictor):
            def predict_batch(self, workload, mappings):
                rates = oracle.predict_batch(workload, mappings)
                noise = rng.lognormal(0.0, 0.6, size=rates.shape)
                return rates * noise

        return Noisy(PLATFORM)

    def test_validation_never_starves_with_noisy_predictor(self):
        workload = [get_model(n) for n in
                    ("squeezenet_v2", "inception_v4", "resnet50")]
        manager = RankMap(
            PLATFORM, self._noisy_predictor(),
            RankMapConfig(mode="dynamic",
                          mcts=MCTSConfig(iterations=40, rollouts_per_leaf=4),
                          board_validation_top_k=6),
        )
        decision = manager.plan(workload)
        result = simulate(workload, decision.mapping, PLATFORM)
        assert (result.potentials >= 0.02).all()

    def test_validation_adds_measurement_windows(self):
        workload = [get_model("alexnet"), get_model("mobilenet")]
        base_cfg = RankMapConfig(
            mode="dynamic",
            mcts=MCTSConfig(iterations=15, rollouts_per_leaf=2))
        valid_cfg = RankMapConfig(
            mode="dynamic",
            mcts=MCTSConfig(iterations=15, rollouts_per_leaf=2),
            board_validation_top_k=3)
        plain = RankMap(PLATFORM, OraclePredictor(PLATFORM), base_cfg)
        validated = RankMap(PLATFORM, OraclePredictor(PLATFORM), valid_cfg)
        t_plain = plain.plan(workload).decision_seconds
        t_valid = validated.plan(workload).decision_seconds
        assert t_valid >= t_plain + 2.0  # at least one extra window

    def test_zero_k_disables_validation(self):
        workload = [get_model("alexnet")]
        manager = RankMap(
            PLATFORM, OraclePredictor(PLATFORM),
            RankMapConfig(mode="dynamic",
                          mcts=MCTSConfig(iterations=5, rollouts_per_leaf=2),
                          board_validation_top_k=0),
        )
        decision = manager.plan(workload)
        expected = manager.last_stats.evaluations * 2.0
        assert decision.decision_seconds == pytest.approx(expected)
