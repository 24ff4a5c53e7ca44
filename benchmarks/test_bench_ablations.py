"""Ablation benches for the design choices DESIGN.md calls out.

* MCTS vs random search at equal evaluation budget (what the tree buys).
* Rollout persistence on/off (coherent vs iid completions).
* Starvation-threshold on/off (the cost of the no-starvation guarantee).
* VQ-VAE embeddings vs raw 22-dim features as estimator input width proxy.
* Power-penalty weight sweep (throughput cost of the power extension).
* DES buffer depth (how much pipeline buffering the throughput needs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OraclePredictor, RankMap, RankMapConfig
from repro.hw import orange_pi_5
from repro.search import (
    MCTS,
    MCTSConfig,
    RewardConfig,
    mapping_reward,
    random_search,
    thresholds_for,
)
from repro.sim import simulate
from repro.zoo import get_model

PLATFORM = orange_pi_5()
WORKLOAD = [get_model(n)
            for n in ("squeezenet_v2", "inception_v4", "resnet50", "vgg16")]
BUDGET = 120  # mapping evaluations per search


def _oracle_reward_evaluator():
    oracle = OraclePredictor(PLATFORM)
    cfg = RewardConfig(kind="floor")
    p = np.full(len(WORKLOAD), 0.25)
    thresholds = thresholds_for(WORKLOAD, PLATFORM, cfg, p)

    def evaluate(mappings):
        rates = oracle.predict_batch(WORKLOAD, mappings)
        return np.array([
            mapping_reward(r, p, thresholds, kind="floor") for r in rates
        ])

    return evaluate


def test_bench_ablation_mcts_vs_random(benchmark):
    evaluate = _oracle_reward_evaluator()

    def run_both():
        mcts = MCTS(WORKLOAD, 3, evaluate,
                    MCTSConfig(iterations=BUDGET // 4, rollouts_per_leaf=4,
                               seed=1))
        _, stats = mcts.search()
        _, rnd_best = random_search(WORKLOAD, 3, evaluate, BUDGET,
                                    np.random.default_rng(1))
        return stats.best_reward, rnd_best

    mcts_best, random_best = benchmark.pedantic(run_both, rounds=1,
                                                iterations=1)
    benchmark.extra_info["mcts_best_reward"] = float(mcts_best)
    benchmark.extra_info["random_best_reward"] = float(random_best)


@pytest.mark.parametrize("persistence", [0.0, 0.85])
def test_bench_ablation_rollout_persistence(benchmark, persistence):
    evaluate = _oracle_reward_evaluator()

    def run():
        mcts = MCTS(WORKLOAD, 3, evaluate,
                    MCTSConfig(iterations=BUDGET // 4, rollouts_per_leaf=4,
                               rollout_persistence=persistence, seed=2))
        return mcts.search()[1].best_reward

    best = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["persistence"] = persistence
    benchmark.extra_info["best_reward"] = float(best)


@pytest.mark.parametrize("guarded", [True, False])
def test_bench_ablation_threshold_guard(benchmark, guarded):
    """The no-starvation guard costs some T; quantify both sides."""
    reward = (RewardConfig(kind="floor")
              if guarded else RewardConfig(kind="floor", threshold=0.0,
                                           priority_gain=0.0))
    manager = RankMap(
        PLATFORM, OraclePredictor(PLATFORM),
        RankMapConfig(mode="dynamic", reward=reward,
                      mcts=MCTSConfig(iterations=BUDGET // 4,
                                      rollouts_per_leaf=4, seed=3)),
    )

    def run():
        decision = manager.plan(WORKLOAD)
        return simulate(WORKLOAD, decision.mapping, PLATFORM)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["guarded"] = guarded
    benchmark.extra_info["avg_T"] = float(result.average_throughput)
    benchmark.extra_info["min_P"] = float(result.potentials.min())


def test_bench_ablation_embedding_compression(benchmark):
    """VQ-VAE 16-dim embeddings vs raw 22-dim layer vectors: the paper
    credits the compression with ~58 % fewer estimator MACs; here the
    input width drops 22->16 (27 %) and the Q tensor shrinks to match."""
    from repro.vqvae import EMBEDDING_DIM, LayerVQVAE
    from repro.zoo.vectorize import LAYER_VECTOR_DIM, vectorize_model

    vqvae = LayerVQVAE(np.random.default_rng(0))
    model = get_model("inception_v4")

    def embed():
        return vqvae.embed_model(model)

    emb = benchmark(embed)
    benchmark.extra_info["raw_dim"] = LAYER_VECTOR_DIM
    benchmark.extra_info["embed_dim"] = EMBEDDING_DIM
    benchmark.extra_info["width_reduction"] = (
        1.0 - EMBEDDING_DIM / LAYER_VECTOR_DIM)
    assert emb.shape[1] == EMBEDDING_DIM


@pytest.mark.parametrize("objective", ["floor", "weighted_raw",
                                       "weighted_potentials"])
def test_bench_ablation_reward_objective(benchmark, objective):
    """The throughput-vs-priority-correlation spectrum (EXPERIMENTS.md):
    floor maximises T, weighted potentials maximises P-p correlation,
    the paper's weighted raw rates (the shipped default) sits between."""
    from repro.core.priorities import dynamic_priorities
    from repro.metrics import pearson_r

    reward = {
        "floor": RewardConfig(kind="floor"),
        "weighted_raw": RewardConfig(kind="weighted",
                                     normalize_by_ideal=False),
        "weighted_potentials": RewardConfig(kind="weighted",
                                            normalize_by_ideal=True),
    }[objective]
    manager = RankMap(
        PLATFORM, OraclePredictor(PLATFORM),
        RankMapConfig(mode="dynamic", reward=reward,
                      mcts=MCTSConfig(iterations=BUDGET // 4,
                                      rollouts_per_leaf=4, seed=7)),
    )

    def run():
        decision = manager.plan(WORKLOAD)
        return simulate(WORKLOAD, decision.mapping, PLATFORM)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["objective"] = objective
    benchmark.extra_info["avg_T"] = float(result.average_throughput)
    benchmark.extra_info["p_p_correlation"] = float(
        pearson_r(result.potentials, dynamic_priorities(WORKLOAD)))
    benchmark.extra_info["min_P"] = float(result.potentials.min())


@pytest.mark.parametrize("power_weight", [0.0, 4.0])
def test_bench_ablation_power_weight(benchmark, power_weight):
    """Power-aware planning: throughput and watts at two penalty weights."""
    from repro.core import PowerAwareRankMap
    from repro.hw import energy_report, orange_pi_5_power

    power = orange_pi_5_power()
    manager = PowerAwareRankMap(
        PLATFORM, OraclePredictor(PLATFORM), power,
        RankMapConfig(mode="dynamic",
                      mcts=MCTSConfig(iterations=BUDGET // 4,
                                      rollouts_per_leaf=4, seed=5)),
        objective="penalty", power_weight=power_weight,
    )

    def run():
        decision = manager.plan(WORKLOAD)
        return energy_report(WORKLOAD, decision.mapping, PLATFORM, power)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["power_weight"] = power_weight
    benchmark.extra_info["board_watts"] = float(report.system_watts)
    benchmark.extra_info["total_T"] = float(report.total_throughput)
    benchmark.extra_info["inf_per_joule"] = float(
        report.inferences_per_joule)


@pytest.mark.parametrize("buffer_depth", [1, 2, 4])
def test_bench_ablation_des_buffer_depth(benchmark, buffer_depth):
    """Inter-stage buffering: throughput delivered per buffer depth."""
    from repro.mapping import random_partition_mapping
    from repro.sim import DesConfig, simulate_des

    rng = np.random.default_rng(17)
    mapping = random_partition_mapping(WORKLOAD, 3, rng)
    config = DesConfig(horizon_s=15.0, warmup_s=3.0,
                       buffer_depth=buffer_depth)

    result = benchmark.pedantic(
        lambda: simulate_des(WORKLOAD, mapping, PLATFORM, config),
        rounds=1, iterations=1)
    benchmark.extra_info["buffer_depth"] = buffer_depth
    benchmark.extra_info["avg_T"] = float(result.average_throughput)
