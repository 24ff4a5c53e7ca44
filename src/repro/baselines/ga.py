"""Genetic-algorithm manager (Kang et al., IEEE Access 2020).

Evolves per-block component assignments with tournament selection, uniform
crossover and point mutation.  Fitness is the *measured* average workload
throughput: every chromosome is executed on the (simulated) board, which is
why the paper finds the GA the slowest manager — it cannot reuse past data
and pays a full measurement window per evaluation, every time the workload
changes.  No priorities, no starvation guard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.manager import Manager
from ..core.predictor import OraclePredictor
from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..sim.dynamic import MappingDecision
from ..zoo.layers import ModelSpec

__all__ = ["GeneticManager", "GAConfig"]

#: Tournament size, crossover and per-gene mutation odds, and how many of
#: the fittest chromosomes survive each generation unchanged.
_TOURNAMENT = 3
_CROSSOVER_RATE = 0.9
_MUTATION_RATE = 0.05
_ELITES = 2


@dataclass(frozen=True)
class GAConfig:
    """Evolutionary hyper-parameters."""

    population: int = 20
    generations: int = 12
    seed: int = 0


class GeneticManager(Manager):
    """GA over mappings with on-board fitness evaluation."""

    name = "ga"

    def __init__(self, platform: Platform, config: GAConfig | None = None):
        self.platform = platform
        self.config = config if config is not None else GAConfig()
        self.oracle = OraclePredictor(platform)
        self._plan_counter = 0

    # ------------------------------------------------------------------
    def plan(self, workload: list[ModelSpec],
             priorities: np.ndarray | None = None) -> MappingDecision:
        t0 = time.perf_counter()
        if not workload:
            raise ValueError("workload must not be empty")
        cfg = self.config
        self._plan_counter += 1
        rng = np.random.default_rng(cfg.seed + self._plan_counter)
        block_counts = [m.num_blocks for m in workload]
        genome_len = sum(block_counts)
        d = self.platform.num_components

        population = rng.integers(d, size=(cfg.population, genome_len))
        evaluations = 0

        def fitness(batch: np.ndarray) -> np.ndarray:
            nonlocal evaluations
            mappings = [self._decode(g, block_counts) for g in batch]
            rates = self.oracle.predict_batch(workload, mappings)
            evaluations += len(mappings)
            return rates.mean(axis=1)  # average throughput objective

        scores = fitness(population)
        for _ in range(cfg.generations):
            order = np.argsort(-scores)
            population = population[order]
            scores = scores[order]
            next_pop = [population[i].copy() for i in range(_ELITES)]
            while len(next_pop) < cfg.population:
                a = self._tournament(population, scores, rng)
                b = self._tournament(population, scores, rng)
                child = a.copy()
                if rng.random() < _CROSSOVER_RATE:
                    take_b = rng.random(genome_len) < 0.5
                    child[take_b] = b[take_b]
                mutate = rng.random(genome_len) < _MUTATION_RATE
                child[mutate] = rng.integers(d, size=int(mutate.sum()))
                next_pop.append(child)
            population = np.stack(next_pop)
            scores = fitness(population)

        best = population[int(np.argmax(scores))]
        self.last_wall_seconds = time.perf_counter() - t0
        modeled = evaluations * self.oracle.board_latency_per_eval
        return MappingDecision(self._decode(best, block_counts),
                               decision_seconds=modeled)

    # ------------------------------------------------------------------
    def _tournament(self, population: np.ndarray, scores: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(len(population), size=_TOURNAMENT)
        return population[idx[np.argmax(scores[idx])]]

    @staticmethod
    def _decode(genome: np.ndarray, block_counts: list[int]) -> Mapping:
        assignments = []
        pos = 0
        for count in block_counts:
            assignments.append(tuple(int(g) for g in genome[pos : pos + count]))
            pos += count
        return Mapping(tuple(assignments))
