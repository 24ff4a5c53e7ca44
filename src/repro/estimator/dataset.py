"""Estimator training data (Sec. V).

The paper collects 10 K workloads of up to 5 concurrent DNNs drawn from the
23-model pool, randomly partitions and maps each, executes them on the
board, and records every DNN's inferences/s.  Here the oracle is the
execution simulator; everything else (sampling scheme, Q-tensor encoding,
train/validation split) matches the paper's description.

Samples store only (names, mapping, rates); Q tensors are assembled on
demand from cached VQ-VAE embeddings, keeping a 10 K-sample dataset small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.platform import Platform
from ..mapping import (
    Mapping,
    build_q_tensor_batch,
    random_partition_mapping,
    uniform_block_mapping,
)
from ..sim import simulate
from ..vqvae.train import EmbeddingCache
from ..zoo.registry import MODEL_POOL, get_model
from .model import EstimatorConfig

__all__ = ["EstimatorSample", "EstimatorDataset", "generate_dataset"]


@dataclass(frozen=True)
class EstimatorSample:
    """One executed workload: mapping plus measured per-DNN rates."""

    names: tuple[str, ...]
    mapping: Mapping
    rates: tuple[float, ...]


@dataclass
class EstimatorDataset:
    """A collection of executed workloads with Q-tensor assembly."""

    samples: list[EstimatorSample]
    config: EstimatorConfig

    def __len__(self) -> int:
        return len(self.samples)

    def split(self, val_fraction: float, rng: np.random.Generator
              ) -> tuple["EstimatorDataset", "EstimatorDataset"]:
        """Shuffled train/validation split (paper: 90 % / 10 %)."""
        if not 0.0 < val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        order = rng.permutation(len(self.samples))
        n_val = max(1, int(len(self.samples) * val_fraction))
        val_idx = set(order[:n_val].tolist())
        train = [s for i, s in enumerate(self.samples) if i not in val_idx]
        val = [s for i, s in enumerate(self.samples) if i in val_idx]
        return (EstimatorDataset(train, self.config),
                EstimatorDataset(val, self.config))

    def build_batch(self, indices, embedder: EmbeddingCache
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble (Q, targets, mask) for ``indices``.

        Q is (B, max_dnns, max_layers, width); targets are log1p(rates)
        padded to ``max_dnns``; mask flags real DNN slots.
        """
        cfg = self.config
        b = len(indices)
        q = np.zeros((b, cfg.max_dnns, cfg.max_layers, cfg.width),
                     dtype=np.float32)
        y = np.zeros((b, cfg.max_dnns), dtype=np.float32)
        mask = np.zeros((b, cfg.max_dnns), dtype=np.float32)
        for row, idx in enumerate(indices):
            sample = self.samples[idx]
            workload = [get_model(n) for n in sample.names]
            embeddings = embedder.for_workload(workload)
            q[row] = build_q_tensor_batch(
                workload, [sample.mapping], embeddings, cfg.num_components,
                cfg.max_dnns, cfg.max_layers,
            )[0]
            k = len(sample.names)
            y[row, :k] = np.log1p(sample.rates)
            mask[row, :k] = 1.0
        return q, y, mask


def generate_dataset(platform: Platform, rng: np.random.Generator,
                     n_samples: int,
                     config: EstimatorConfig | None = None,
                     pool: tuple[str, ...] = MODEL_POOL,
                     min_dnns: int = 1) -> EstimatorDataset:
    """Sample, map and "execute" ``n_samples`` random workloads.

    Mappings alternate between the paper's random-partition scheme and
    fully uniform per-block assignments so the estimator sees both the
    coarse and the fine-grained regions MCTS rollouts will visit.
    """
    config = config if config is not None else EstimatorConfig()
    if not 1 <= min_dnns <= config.max_dnns:
        raise ValueError("min_dnns out of range")
    samples: list[EstimatorSample] = []
    for i in range(n_samples):
        k = int(rng.integers(min_dnns, config.max_dnns + 1))
        names = tuple(rng.choice(pool, size=k, replace=False).tolist())
        workload = [get_model(n) for n in names]
        if i % 2 == 0:
            mapping = random_partition_mapping(
                workload, config.num_components, rng)
        else:
            mapping = uniform_block_mapping(
                workload, config.num_components, rng)
        result = simulate(workload, mapping, platform)
        samples.append(EstimatorSample(
            names=names, mapping=mapping,
            rates=tuple(float(r) for r in result.rates),
        ))
    return EstimatorDataset(samples, config)
