"""Priority vectors (Sec. IV-B).

* Static: the user pins a high priority on a critical DNN (RankMap_S).
* Dynamic: priorities follow each DNN's computational demand profile
  (RankMap_D) — heavier models need a larger resource share to stay alive,
  which is exactly the Fig. 8 narrative where Inception-ResNet-V1 receives
  the highest dynamic priority.
"""

from __future__ import annotations

import numpy as np

from ..zoo.layers import ModelSpec

__all__ = ["normalize_priorities", "static_priorities", "dynamic_priorities"]

#: The critical DNN's share of a static priority vector.
CRITICAL_WEIGHT = 0.7


def normalize_priorities(priorities) -> np.ndarray:
    """Scale a non-negative vector to sum to 1."""
    p = np.asarray(priorities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("priorities must be a non-empty 1-D vector")
    if (p < 0).any():
        raise ValueError("priorities must be non-negative")
    total = p.sum()
    if total <= 0:
        raise ValueError("priorities must not all be zero")
    return p / total


def static_priorities(num_dnns: int, critical_index: int) -> np.ndarray:
    """The paper's static scheme: one critical DNN at
    :data:`CRITICAL_WEIGHT`, the rest uniform."""
    if not 0 <= critical_index < num_dnns:
        raise ValueError("critical_index out of range")
    if num_dnns == 1:
        return np.ones(1)
    rest = (1.0 - CRITICAL_WEIGHT) / (num_dnns - 1)
    p = np.full(num_dnns, rest)
    p[critical_index] = CRITICAL_WEIGHT
    return p


def dynamic_priorities(workload: list[ModelSpec]) -> np.ndarray:
    """Demand-proportional priorities from the layer profiles."""
    if not workload:
        raise ValueError("workload must not be empty")
    demand = np.array([float(m.macs) for m in workload])
    return normalize_priorities(demand)
