"""The scalar-draw MCTS rollout and tree walk, kept as the search's oracle.

:class:`repro.search.MCTS` completes a rollout by replaying the PCG64
stream in bulk and walks the tree on Python floats.  This module keeps the
implementation it replaced: one ``Generator.random()`` per non-boundary
block, one ``Generator.integers()`` per fresh component draw, expansion
through ``Generator.choice`` and UCB1 scored on numpy scalars.
``tests/property/test_mcts_equivalence.py`` holds the production search to
it draw for draw: equal mappings, equal generator state after every
rollout, and equal whole-search results.  Only tests run it, so it lives
under ``tests/oracles/`` and is imported as ``tests.oracles.mcts_reference``.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.mapping import Mapping
from repro.search.mcts import MCTS, MCTSStats, _Node
from repro.search.reward import DISQUALIFIED

__all__ = ["ReferenceMCTS", "reference_complete"]


def reference_complete(search: MCTS, prefix: list[int]) -> Mapping:
    """Markov-persistent random completion of a decision prefix, drawn
    with one scalar generator call per decision."""
    persist = search.config.rollout_persistence
    block_counts = [m.num_blocks for m in search.workload]
    flat = list(prefix)
    boundaries = set(np.cumsum([0] + block_counts[:-1]).tolist())
    while len(flat) < search.depth:
        pos = len(flat)
        if pos in boundaries or not flat or search._rng.random() > persist:
            flat.append(int(search._rng.integers(search.num_components)))
        else:
            flat.append(flat[-1])
    assignments = []
    pos = 0
    for count in block_counts:
        assignments.append(tuple(flat[pos : pos + count]))
        pos += count
    return Mapping(tuple(assignments))


class ReferenceMCTS(MCTS):
    """:class:`MCTS` with the scalar-draw rollout, the numpy-scalar tree
    walk and the search loop they ran under."""

    def search(self) -> tuple[Mapping, MCTSStats]:
        stats = MCTSStats()
        best_mapping: Mapping | None = None

        for _ in range(self.config.iterations):
            path, prefix = self._select_and_expand()
            mappings = [self._complete(prefix)
                        for _ in range(self.config.rollouts_per_leaf)]
            rewards = np.asarray(self.evaluator(mappings), dtype=np.float64)
            if rewards.shape != (len(mappings),):
                raise ValueError("evaluator must return one reward per mapping")

            for mapping, reward in zip(mappings, rewards):
                stats.evaluations += 1
                if reward <= DISQUALIFIED:
                    stats.disqualified += 1
                else:
                    self._lo = min(self._lo, reward)
                    self._hi = max(self._hi, reward)
                if best_mapping is None or reward > stats.best_reward:
                    stats.best_reward = reward
                    best_mapping = mapping
                if reward > DISQUALIFIED:
                    stats.record_candidate(reward, mapping)

            value = self._backup_value(rewards)
            for node in path:
                node.visits += 1
                node.value_sum += value

        return best_mapping, stats

    def _select_and_expand(self) -> tuple[list[_Node], list[int]]:
        node = self._root
        path = [node]
        prefix: list[int] = []
        c = self.config.exploration
        while len(prefix) < self.depth:
            if len(node.children) < self.num_components:
                untried = [a for a in range(self.num_components)
                           if a not in node.children]
                action = int(self._rng.choice(untried))
                child = _Node()
                node.children[action] = child
                path.append(child)
                prefix.append(action)
                return path, prefix
            log_n = np.log(max(node.visits, 1))
            best_action, best_score = 0, -np.inf
            for action, child in node.children.items():
                explore = c * np.sqrt(log_n / child.visits) \
                    if child.visits else np.inf
                mean = child.value_sum / child.visits if child.visits else 0.0
                score = self._normalise(mean) + explore
                if score > best_score:
                    best_action, best_score = action, score
            node = node.children[best_action]
            path.append(node)
            prefix.append(best_action)
        return path, prefix

    def _complete(self, prefix: list[int]) -> Mapping:
        return reference_complete(self, prefix)

    def _backup_value(self, rewards: np.ndarray) -> float:
        floor = self._floor()
        clipped = np.where(rewards <= DISQUALIFIED, floor, rewards)
        return float(clipped.mean())

    def _normalise(self, raw: float) -> float:
        if not np.isfinite(self._lo):
            return 0.0
        return (raw - self._floor()) / (self._hi - self._floor() + 1e-12)

    def _floor(self) -> float:
        if not np.isfinite(self._lo):
            return 0.0
        spread = max(self._hi - self._lo, 1e-9)
        return self._lo - 0.25 * spread
