"""Random search over mappings — the ablation baseline for MCTS."""

from __future__ import annotations

import numpy as np

from ..mapping.mapping import Mapping
from ..mapping.random_map import uniform_block_mapping
from ..zoo.layers import ModelSpec
from .mcts import Evaluator

__all__ = ["random_search"]


def random_search(workload: list[ModelSpec], num_components: int,
                  evaluator: Evaluator, evaluations: int,
                  rng: np.random.Generator,
                  batch_size: int = 16) -> tuple[Mapping, float]:
    """Evaluate ``evaluations`` uniform mappings; return the best.

    Same evaluation budget semantics as MCTS, no tree guidance — used by
    the ablation benchmark to quantify what the tree search contributes.
    """
    if evaluations < 1:
        raise ValueError("need at least one evaluation")
    best_mapping: Mapping | None = None
    best_reward = -np.inf
    done = 0
    while done < evaluations:
        take = min(batch_size, evaluations - done)
        batch = [uniform_block_mapping(workload, num_components, rng)
                 for _ in range(take)]
        rewards = np.asarray(evaluator(batch), dtype=np.float64)
        idx = int(rewards.argmax())
        if rewards[idx] > best_reward:
            best_reward = float(rewards[idx])
            best_mapping = batch[idx]
        done += take
    if best_mapping is None:  # pragma: no cover
        raise RuntimeError("no mapping evaluated")
    return best_mapping, best_reward
