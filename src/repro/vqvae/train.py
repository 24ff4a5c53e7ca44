"""VQ-VAE training on the model zoo's layer sequences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import Tensor, optim
from ..zoo.layers import ModelSpec
from ..zoo.registry import pool_models
from ..zoo.vectorize import vectorize_model
from .model import LayerVQVAE

__all__ = ["VQVAETrainConfig", "train_vqvae", "EmbeddingCache"]


@dataclass(frozen=True)
class VQVAETrainConfig:
    """Hyper-parameters for VQ-VAE training."""

    epochs: int = 12
    lr: float = 2e-3
    seed: int = 0
    hidden: int = 32


def train_vqvae(models: list[ModelSpec] | None = None,
                config: VQVAETrainConfig | None = None
                ) -> tuple[LayerVQVAE, list[float]]:
    """Train a :class:`LayerVQVAE` on the layer sequences of ``models``.

    Returns the trained model and the per-epoch mean reconstruction L2.
    """
    config = config if config is not None else VQVAETrainConfig()
    rng = np.random.default_rng(config.seed)
    models = models if models is not None else pool_models()
    vqvae = LayerVQVAE(rng, hidden=config.hidden)
    optimizer = optim.Adam(vqvae.parameters(), lr=config.lr)
    sequences = [vectorize_model(m) for m in models]

    history: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(sequences))
        epoch_err = 0.0
        for i in order:
            features = Tensor(sequences[i].T[None])  # (1, 22, L)
            optimizer.zero_grad()
            total, recon_err = vqvae.loss(features)
            total.backward()
            optim.clip_grad_norm(vqvae.parameters(), optim.GRAD_CLIP_NORM)
            optimizer.step()
            epoch_err += recon_err
        history.append(epoch_err / len(sequences))
    vqvae.eval()
    return vqvae, history


class EmbeddingCache:
    """Memoised per-model quantised embeddings (the search hot path)."""

    def __init__(self, vqvae: LayerVQVAE):
        self.vqvae = vqvae
        self._cache: dict[str, np.ndarray] = {}

    def get(self, model: ModelSpec) -> np.ndarray:
        found = self._cache.get(model.name)
        if found is None:
            found = self.vqvae.embed_model(model)
            self._cache[model.name] = found
        return found

    def for_workload(self, workload: list[ModelSpec]) -> list[np.ndarray]:
        return [self.get(m) for m in workload]
