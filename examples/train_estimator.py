#!/usr/bin/env python
"""Train the full learned pipeline: VQ-VAE + multi-task estimator.

Walks the paper's Sec. IV pipeline end to end on a reduced dataset:
1. train the VQ-VAE on the 23-model pool's layer sequences;
2. generate an executed-workload dataset on the simulated board;
3. train the multi-task attention estimator (with channel shuffling);
4. use it inside RankMap to map a workload, and compare the estimator's
   predictions against the board.
"""

import numpy as np

from repro.core import EstimatorPredictor, RankMap, RankMapConfig
from repro.estimator import (
    EstimatorConfig,
    EstimatorTrainConfig,
    ThroughputEstimator,
    generate_dataset,
    train_estimator,
)
from repro.hw import orange_pi_5
from repro.search import MCTSConfig
from repro.sim import simulate
from repro.vqvae import EmbeddingCache, VQVAETrainConfig, train_vqvae
from repro.zoo import get_model

N_SAMPLES = 400   # paper: 10 000
EPOCHS = 6        # paper: 50


def main() -> None:
    platform = orange_pi_5()
    rng = np.random.default_rng(0)

    print("1) training VQ-VAE on the 23-model pool ...")
    vqvae, history = train_vqvae(config=VQVAETrainConfig(epochs=10))
    print(f"   reconstruction L2: {history[0]:.4f} -> {history[-1]:.4f}; "
          f"codebook usage {vqvae.quantizer.codebook_usage():.0%}")
    embedder = EmbeddingCache(vqvae)

    print(f"2) generating {N_SAMPLES} executed workloads on the board ...")
    dataset = generate_dataset(platform, rng, N_SAMPLES)

    print(f"3) training the estimator for {EPOCHS} epochs ...")
    estimator = ThroughputEstimator(np.random.default_rng(1),
                                    EstimatorConfig())
    report = train_estimator(
        estimator, dataset, embedder,
        EstimatorTrainConfig(epochs=EPOCHS, channel_shuffle=True),
    )
    print(f"   val L2 (log1p space): {report.final_val_loss:.4f}, "
          f"val Spearman: {report.val_spearman:.3f}")

    print("4) planning with RankMap_D on the learned estimator ...")
    workload = [get_model(n)
                for n in ("squeezenet_v2", "resnet50", "googlenet")]
    manager = RankMap(
        platform, EstimatorPredictor(estimator, embedder),
        RankMapConfig(mode="dynamic",
                      mcts=MCTSConfig(iterations=50, rollouts_per_leaf=4)),
    )
    decision = manager.plan(workload)
    result = simulate(workload, decision.mapping, platform)
    predicted = EstimatorPredictor(estimator, embedder).predict_batch(
        workload, [decision.mapping])[0]
    print("   DNN            predicted   measured (inf/s)")
    for model, pred, true in zip(workload, predicted, result.rates):
        print(f"   {model.name:15s} {pred:8.2f} {true:10.2f}")
    print(f"   T = {result.average_throughput:.2f} inf/s, "
          f"starved = {(result.potentials < 0.02).sum()}")


if __name__ == "__main__":
    main()
