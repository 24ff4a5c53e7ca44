"""Priority-weighted reward with starvation disqualification (Sec. IV-E).

    M* = argmax_M  O(M)^T p   subject to  O(M)_i > th  for all i

Mappings with any predicted per-DNN throughput at or below the threshold are
disqualified (the paper's "large negative reward").  Thresholds may be given
absolutely in inferences/s (as in the paper's Fig. 4 example, th = 3) or
relative to each DNN's ideal throughput — the relative form adapts to
workloads mixing 4 inf/s and 60 inf/s models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.platform import Platform
from ..sim.tables import tables_for
from ..zoo.layers import ModelSpec

__all__ = ["RewardConfig", "DISQUALIFIED", "thresholds_for", "mapping_reward"]

#: Reward assigned to disqualified mappings (the paper's "-inf").
DISQUALIFIED = -1e18


@dataclass(frozen=True)
class RewardConfig:
    """Reward shape and threshold policy.

    Two reward kinds are provided:

    * ``"floor"`` (default) — implements the paper's guarantee that "each
      DNN receives enough computing resources proportional to its priority
      without starving other DNNs": a mapping must clear a per-DNN
      potential floor ``threshold + priority_gain * p_i`` and is otherwise
      scored by average throughput.  Under saturation RankMap relaxes the
      floors proportionally, which reproduces the graceful priority
      degradation of the paper's Fig. 9.
    * ``"weighted"`` — the literal Sec. IV-E arithmetic: priority-weighted
      sum of predicted rates with a hard disqualification threshold
      (Fig. 4's example uses this with ``mode="absolute"``).

    ``normalize_by_ideal`` applies to the weighted kind: raw inferences/s
    lets a light DNN's huge rates hijack the objective regardless of
    priorities (a 40 inf/s SqueezeNet at weight 0.1 outscores a 4 inf/s
    Inception at weight 0.7); weighting potentials instead reproduces the
    paper's prioritisation behaviour.
    """

    kind: str = "floor"           # "floor" or "weighted"
    mode: str = "relative"        # "relative" (x ideal) or "absolute" (inf/s)
    threshold: float = 0.04       # base floor: fraction of ideal, or inf/s
    priority_gain: float = 0.5    # floor kind: extra potential per priority
    normalize_by_ideal: bool = True

    def __post_init__(self):
        if self.kind not in ("floor", "weighted"):
            raise ValueError(f"unknown reward kind {self.kind!r}")
        if self.mode not in ("relative", "absolute"):
            raise ValueError(f"unknown threshold mode {self.mode!r}")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.priority_gain < 0:
            raise ValueError("priority_gain must be non-negative")


def thresholds_for(workload: list[ModelSpec], platform: Platform,
                   config: RewardConfig,
                   priorities: np.ndarray | None = None) -> np.ndarray:
    """Per-DNN throughput thresholds in inferences/s.

    The floor reward raises each DNN's threshold in proportion to its
    priority; the weighted reward uses the flat base threshold.
    """
    if config.mode == "absolute":
        base = np.full(len(workload), config.threshold)
        if config.kind == "floor" and priorities is not None:
            # Scale the absolute floor by relative priority.
            base = base * (1.0 + config.priority_gain * len(workload)
                           * np.asarray(priorities))
        return base
    ideals = tables_for(platform).ideal_rates(workload)
    frac = np.full(len(workload), config.threshold)
    if config.kind == "floor" and priorities is not None:
        frac = frac + config.priority_gain * np.asarray(priorities)
    return frac * ideals


def mapping_reward(rates: np.ndarray, priorities: np.ndarray,
                   thresholds: np.ndarray,
                   ideals: np.ndarray | None = None,
                   kind: str = "weighted") -> float:
    """Reward of one mapping given (predicted) per-DNN rates.

    ``kind="weighted"``: priority-weighted sum of rates (or potentials
    when ``ideals`` is given).  ``kind="floor"``: average throughput; the
    priorities have already been folded into ``thresholds``.  Either way a
    mapping below any threshold is disqualified.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.shape != priorities.shape or rates.shape != thresholds.shape:
        raise ValueError("rates, priorities and thresholds must align")
    if (rates <= thresholds).any():
        return DISQUALIFIED
    if kind == "floor":
        return float(rates.mean())
    values = rates if ideals is None else rates / np.asarray(ideals)
    return float(values @ priorities)
