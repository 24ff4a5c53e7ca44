"""Monte-Carlo Tree Search over the mapping space (Sec. IV-E).

The decision sequence flattens every DNN's blocks in workload order; each
tree level assigns the next block to one of the platform's components, so a
root-to-depth-D path is a complete mapping (D = total blocks, spanning the
``d^D`` solution space).  Selection uses UCB1 with min-max value
normalisation; expansion adds one child; simulation completes the prefix
with uniform random assignments and scores the batch of completed mappings
with the (estimator-backed) evaluator; the best completed mapping ever
scored is returned.

The evaluator is injected as a callable so the same search runs on the
learned estimator (RankMap, OmniBoost) or directly on the simulator
(ablations).

A rollout is the search's hot path, so it replays the generator's stream
in bulk instead of calling it once per block, and draw for draw: every
decision, and the generator state a rollout leaves behind, equals what
scalar ``random()`` and ``integers()`` calls would give
(``tests/property/test_mcts_equivalence.py`` holds it to the scalar-draw
oracle in ``tests/oracles/mcts_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from ..mapping.mapping import Mapping
from ..zoo.layers import ModelSpec
from .reward import DISQUALIFIED

__all__ = ["MCTSConfig", "MCTSStats", "MCTS"]

# Batch evaluator: list of complete mappings -> array of rewards.
Evaluator = Callable[[list[Mapping]], np.ndarray]


@dataclass(frozen=True)
class MCTSConfig:
    """Search budget and exploration parameters."""

    iterations: int = 160          # tree expansions
    rollouts_per_leaf: int = 4     # random completions scored per expansion
    exploration: float = 0.7       # UCB1 constant (values are minmax-normed)
    # Rollout policy: probability that the next block stays on the previous
    # block's component.  Coherent (low-fragmentation) completions cover
    # the useful region of the space far better than iid assignments.
    rollout_persistence: float = 0.85
    seed: int = 0

    @property
    def total_evaluations(self) -> int:
        return self.iterations * self.rollouts_per_leaf


@dataclass
class MCTSStats:
    """Diagnostics of one search run."""

    evaluations: int = 0
    disqualified: int = 0
    best_reward: float = DISQUALIFIED
    tree_nodes: int = 1
    # Best distinct mappings seen, sorted by reward (descending); used by
    # RankMap's optional board-validation pass.
    top_candidates: list = field(default_factory=list)

    def record_candidate(self, reward: float, mapping, keep: int = 8) -> None:
        for _, existing in self.top_candidates:
            if existing.assignments == mapping.assignments:
                return
        self.top_candidates.append((reward, mapping))
        self.top_candidates.sort(key=lambda rm: -rm[0])
        del self.top_candidates[keep:]


class _Node:
    __slots__ = ("visits", "value_sum", "children")

    def __init__(self):
        self.visits = 0
        self.value_sum = 0.0
        self.children: dict[int, _Node] = {}


# numpy's PCG64 draws, replayed on the raw 64-bit output words: ``random()``
# is ``(word >> 11) * 2**-53``; ``integers(n)`` for 1 < n <= 2**32 takes
# 32-bit halves (the low half of a fresh word first, its high half kept in
# the ``has_uint32``/``uinteger`` buffer for the next 32-bit draw) through
# Lemire's rejection rule; ``integers(1)`` draws nothing.
_TO_UNIT = 1.0 / 9007199254740992.0
_LOW32 = 0xFFFFFFFF


class MCTS:
    """UCB1 tree search producing the highest-reward mapping found."""

    def __init__(self, workload: list[ModelSpec], num_components: int,
                 evaluator: Evaluator, config: MCTSConfig | None = None):
        config = config if config is not None else MCTSConfig()
        if not workload:
            raise ValueError("workload must not be empty")
        if num_components < 1:
            raise ValueError("need at least one component")
        self.workload = workload
        self.num_components = num_components
        self.evaluator = evaluator
        self.config = config
        counts = [m.num_blocks for m in workload]
        self.depth = sum(counts)
        # Each DNN's slice of the flat decision sequence; its first block
        # draws a component outright, the others test persistence first.
        self._slices = [(end - n, end) for n, end in
                        zip(counts, accumulate(counts))]
        self._fresh = [False] * self.depth
        for start, _ in self._slices:
            self._fresh[start] = True
        # Lemire's rule redraws a 32-bit half whose low product word
        # falls below this.
        self._reject_below = (_LOW32 + 1 - num_components) % num_components
        # ``default_rng``'s generator, named: rollouts replay PCG64's
        # draw rules.
        self._rng = np.random.Generator(np.random.PCG64(config.seed))
        self._logs = [0.0]  # np.log(max(n, 1)) for visit counts n
        self._root = _Node()
        # Running bounds of valid rewards for value normalisation.
        self._lo = math.inf
        self._hi = -math.inf

    # ------------------------------------------------------------------
    def search(self) -> tuple[Mapping, MCTSStats]:
        """Run the budgeted search; returns (best mapping, diagnostics)."""
        stats = MCTSStats()
        best_mapping: Mapping | None = None

        for _ in range(self.config.iterations):
            path, prefix = self._select_and_expand()
            mappings = [self._complete(prefix)
                        for _ in range(self.config.rollouts_per_leaf)]
            rewards = np.asarray(self.evaluator(mappings), dtype=np.float64)
            if rewards.shape != (len(mappings),):
                raise ValueError("evaluator must return one reward per mapping")

            for mapping, reward in zip(mappings, rewards.tolist()):
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

        stats.tree_nodes = self._count_nodes(self._root)
        if best_mapping is None:  # pragma: no cover - iterations >= 1
            raise RuntimeError("search produced no mapping")
        return best_mapping, stats

    # ------------------------------------------------------------------
    def _select_and_expand(self) -> tuple[list[_Node], list[int]]:
        """Walk the tree with UCB1; expand one new child at the frontier.

        Mean values are min-max normalised into ~[0, 1] against the
        running reward bounds (all zero before the first valid reward).
        """
        node = self._root
        path = [node]
        prefix: list[int] = []
        c = self.config.exploration
        num_components = self.num_components
        scored = math.isfinite(self._lo)
        if scored:
            floor = self._floor()
            scale = self._hi - floor + 1e-12
        while len(prefix) < self.depth:
            children = node.children
            if len(children) < num_components:
                # Expand one untried component, drawn as
                # ``rng.choice(untried)`` draws it.
                untried = [a for a in range(num_components)
                           if a not in children]
                action = untried[int(self._rng.integers(len(untried)))]
                child = _Node()
                children[action] = child
                path.append(child)
                prefix.append(action)
                return path, prefix
            # All children exist: UCB1 descent.
            log_n = self._log_visits(node.visits)
            best_action, best_score = 0, -math.inf
            for action, child in children.items():
                visits = child.visits
                if visits:
                    explore = c * math.sqrt(log_n / visits)
                    mean = child.value_sum / visits
                else:
                    explore, mean = math.inf, 0.0
                score = ((mean - floor) / scale if scored else 0.0) + explore
                if score > best_score:
                    best_action, best_score = action, score
            node = children[best_action]
            path.append(node)
            prefix.append(best_action)
        return path, prefix

    def _log_visits(self, visits: int) -> float:
        """``np.log(max(visits, 1))``, memoised (``math.log`` differs from
        it in the last bit for some counts)."""
        logs = self._logs
        while len(logs) <= visits:
            logs.append(float(np.log(len(logs))))
        return logs[visits]

    def _complete(self, prefix: list[int]) -> Mapping:
        """Markov-persistent random completion of a decision prefix.

        Within a DNN, each block repeats the previous block's component
        with probability ``rollout_persistence``; DNN boundaries and the
        first block draw uniformly.  This biases rollouts toward coherent
        few-stage mappings without excluding any mapping from the support.

        The draws are exactly one ``random() > persistence`` test per
        non-boundary block and one ``integers(num_components)`` per fresh
        component, replayed on words from one bulk ``random_raw`` call.
        Afterwards the generator is put back at the state those scalar
        calls leave: the start state advanced by the words they consume,
        with their 32-bit half-word buffer.
        """
        flat = list(prefix)
        bitgen = self._rng.bit_generator
        state = bitgen.state
        has_half, half = state["has_uint32"], state["uinteger"]
        # Enough words unless Lemire rejects: one per persistence test,
        # one per two component draws.
        left = self.depth - len(flat)
        tests = left - sum(start >= len(flat) for start, _ in self._slices)
        raw = bitgen.random_raw(tests + (left + 1) // 2).tolist()
        used = 0
        persist = self.config.rollout_persistence
        n = self.num_components
        fresh = self._fresh
        for pos in range(len(flat), self.depth):
            if not fresh[pos]:
                word = raw[used]
                used += 1
                if not (word >> 11) * _TO_UNIT > persist:
                    flat.append(flat[-1])
                    continue
            if n == 1:
                flat.append(0)
                continue
            while True:
                if has_half:
                    draw, has_half = half, 0
                else:
                    word = raw[used]
                    used += 1
                    draw, half, has_half = word & _LOW32, word >> 32, 1
                scaled = draw * n
                if (scaled & _LOW32) >= self._reject_below:
                    break
                # Rejected: the redraw may need a word past the bound.
                raw.extend(bitgen.random_raw(1).tolist())
            flat.append(scaled >> 32)
        state["has_uint32"], state["uinteger"] = has_half, half
        bitgen.state = state
        bitgen.random_raw(used)
        return Mapping(tuple([tuple(flat[start:end])
                              for start, end in self._slices]))

    def _backup_value(self, rewards: np.ndarray) -> float:
        """Mean of the batch in raw reward units (disqualified -> floor)."""
        floor = self._floor()
        clipped = np.where(rewards <= DISQUALIFIED, floor, rewards)
        return float(clipped.mean())

    def _floor(self) -> float:
        """Raw-value stand-in for disqualified rollouts."""
        if not math.isfinite(self._lo):
            return 0.0
        spread = max(self._hi - self._lo, 1e-9)
        return self._lo - 0.25 * spread

    def _count_nodes(self, node: _Node) -> int:
        return 1 + sum(self._count_nodes(ch) for ch in node.children.values())
