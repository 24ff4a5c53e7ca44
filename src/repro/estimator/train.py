"""Estimator training loop with the paper's channel-shuffle augmentation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Tensor, optim
from ..vqvae.train import EmbeddingCache
from .dataset import EstimatorDataset
from .metrics import l2_loss, spearman_r
from .model import ThroughputEstimator

__all__ = ["EstimatorTrainConfig", "TrainReport", "train_epochs",
           "train_estimator", "evaluate_estimator"]


@dataclass(frozen=True)
class EstimatorTrainConfig:
    """Hyper-parameters for estimator training."""

    epochs: int = 10
    batch_size: int = 24
    lr: float = 1.5e-3
    lr_min: float = 2e-4          # cosine-decayed floor
    val_fraction: float = 0.1     # paper: 10 % held out for feedback
    channel_shuffle: bool = True  # paper's augmentation step
    seed: int = 0


@dataclass
class TrainReport:
    """Loss trajectory and final validation quality."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_spearman: float = 0.0

    @property
    def final_val_loss(self) -> float:
        """Validation L2 after the last epoch (NaN before any epoch)."""
        return self.val_loss[-1] if self.val_loss else float("nan")


def _shuffle_channels(q: np.ndarray, y: np.ndarray, mask: np.ndarray,
                      rng: np.random.Generator) -> None:
    """Permute the DNN channel slots of each sample in place.

    The decoder streams are slot-symmetric; shuffling teaches exactly that
    and is the augmentation the paper credits with halving the L2 loss.
    """
    for row in range(q.shape[0]):
        perm = rng.permutation(q.shape[1])
        q[row] = q[row, perm]
        y[row] = y[row, perm]
        mask[row] = mask[row, perm]


def _masked_mse(pred: Tensor, y: np.ndarray, mask: np.ndarray) -> Tensor:
    diff = pred - Tensor(y)
    masked = diff * Tensor(mask)
    return (masked * masked).sum() * (1.0 / max(mask.sum(), 1.0))


def train_epochs(model: ThroughputEstimator, dataset: EstimatorDataset,
                 embedder: EmbeddingCache, optimizer: optim.Adam,
                 rng: np.random.Generator, config,
                 schedule: optim.CosineSchedule | None = None):
    """The epoch loop :func:`train_estimator` and
    :func:`~repro.estimator.finetune.finetune` share; yields each epoch's
    mean training loss.  ``config`` supplies ``epochs``, ``batch_size``
    and ``channel_shuffle``; gradients clip at
    :data:`~repro.autodiff.optim.GRAD_CLIP_NORM`."""
    n = len(dataset)
    for _ in range(config.epochs):
        model.train()
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            q, y, mask = dataset.build_batch(idx, embedder)
            if config.channel_shuffle:
                _shuffle_channels(q, y, mask, rng)
            optimizer.zero_grad()
            pred = model(Tensor(q))
            loss = _masked_mse(pred, y, mask)
            loss.backward()
            optim.clip_grad_norm(model.parameters(), optim.GRAD_CLIP_NORM)
            if schedule is not None:
                schedule.step()
            optimizer.step()
            epoch_loss += float(loss.data)
            n_batches += 1
        yield epoch_loss / max(1, n_batches)


def train_estimator(model: ThroughputEstimator, dataset: EstimatorDataset,
                    embedder: EmbeddingCache,
                    config: EstimatorTrainConfig | None = None
                    ) -> TrainReport:
    """Train ``model`` on ``dataset``; returns the loss trajectory."""
    config = config if config is not None else EstimatorTrainConfig()
    rng = np.random.default_rng(config.seed)
    train_set, val_set = dataset.split(config.val_fraction, rng)
    optimizer = optim.Adam(model.parameters(), lr=config.lr)
    steps = max(1, (len(train_set) + config.batch_size - 1)
                // config.batch_size)
    schedule = optim.CosineSchedule(optimizer, config.lr, config.lr_min,
                                    steps * config.epochs)
    report = TrainReport()
    for loss in train_epochs(model, train_set, embedder, optimizer, rng,
                             config, schedule):
        report.train_loss.append(loss)
        val_l2, _ = evaluate_estimator(model, val_set, embedder)
        report.val_loss.append(val_l2)

    _, report.val_spearman = evaluate_estimator(model, val_set, embedder)
    return report


def evaluate_estimator(model: ThroughputEstimator, dataset: EstimatorDataset,
                       embedder: EmbeddingCache,
                       batch_size: int = 32) -> tuple[float, float]:
    """(masked L2 on log1p rates, Spearman rank correlation) on ``dataset``."""
    preds, targets, masks = [], [], []
    for start in range(0, len(dataset), batch_size):
        idx = range(start, min(start + batch_size, len(dataset)))
        q, y, mask = dataset.build_batch(list(idx), embedder)
        preds.append(model.predict_log_rates(q))
        targets.append(y)
        masks.append(mask)
    pred = np.concatenate(preds)
    y = np.concatenate(targets)
    mask = np.concatenate(masks)
    l2 = l2_loss(pred, y, mask)
    active = mask.astype(bool)
    rho = spearman_r(pred[active], y[active])
    return l2, rho
