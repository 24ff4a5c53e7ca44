"""Estimator quality metrics: regression error plus rank quality.

MCTS only needs the estimator to *order* mappings correctly, so alongside
the paper's L2 loss we track Spearman rank correlation and pairwise
ordering accuracy against the simulator's ground truth.
"""

from __future__ import annotations

import numpy as np

__all__ = ["l2_loss", "spearman_r", "pairwise_ranking_accuracy"]


def l2_loss(pred: np.ndarray, target: np.ndarray,
            mask: np.ndarray | None = None) -> float:
    """Mean squared error over (masked) entries — the paper's metric."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if mask is None:
        mask = np.ones_like(pred)
    mask = np.asarray(mask, dtype=np.float64)
    total = mask.sum()
    if total == 0:
        raise ValueError("mask selects no entries")
    return float((((pred - target) ** 2) * mask).sum() / total)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def spearman_r(pred, target) -> float:
    """Spearman rank correlation (0.0 for degenerate inputs).

    The Pearson correlation of average ranks; (near-)constant input, or
    any NaN, gives 0.0.
    """
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.size != target.size or pred.size < 2:
        raise ValueError("need two equal-length vectors of size >= 2")
    if np.allclose(pred, pred[0]) or np.allclose(target, target[0]):
        return 0.0
    if np.isnan(pred).any() or np.isnan(target).any():
        return 0.0
    ranks = np.column_stack((_average_ranks(pred), _average_ranks(target)))
    rho = np.corrcoef(ranks, rowvar=False)[1, 0]
    return float(0.0 if np.isnan(rho) else rho)


def pairwise_ranking_accuracy(pred, target, rng: np.random.Generator,
                              n_pairs: int = 2000) -> float:
    """Fraction of random pairs whose predicted order matches the truth."""
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.size < 2:
        raise ValueError("need at least two points")
    i = rng.integers(pred.size, size=n_pairs)
    j = rng.integers(pred.size, size=n_pairs)
    keep = target[i] != target[j]
    if not keep.any():
        return 0.5
    agree = (pred[i] > pred[j]) == (target[i] > target[j])
    return float(agree[keep].mean())
