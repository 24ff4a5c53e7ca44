"""ODMDEF baseline (Lim & Kim, IEEE Access 2021).

ODMDEF combines a linear-regression latency model with a k-NN corrector
trained on a large profiling corpus, and allocates layer groups to cores
and accelerators adaptively.  Re-implemented per its published description:

1. *Profiling* — many random co-execution runs are measured (on the
   simulator here); each stage contributes a sample (block features,
   component, observed contention inflation over its predicted solo time).
2. *k-NN corrector* — at planning time the expected inflation of a block
   on a component is the mean inflation of its k nearest profiled samples.
3. *Allocation* — DNNs are processed in order; every block goes to the
   component with the least accumulated load after correction.  The method
   balances load but knows nothing about priorities, and its accuracy
   hinges on the profiling corpus (the paper's criticism).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.manager import Manager
from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..mapping.random_map import random_partition_mapping
from ..sim.demands import compute_stage_demands
from ..sim.dynamic import MappingDecision
from ..sim.engine import simulate
from ..zoo.layers import ModelSpec
from ..zoo.registry import MODEL_POOL, get_model, pool_models
from .profiling import LinearLatencyModel, block_features

__all__ = ["Odmdef"]


class Odmdef(Manager):
    """Linear regression + k-NN adaptive layer allocator."""

    name = "odmdef"

    #: Modeled on-device decision latency (Sec. V-D: ~1 s).
    MODELED_DECISION_S = 1.1

    #: Profiled samples the k-NN corrector averages per block.
    K_NEIGHBORS = 7

    def __init__(self, platform: Platform, profiling_runs: int = 60,
                 seed: int = 0):
        self.platform = platform
        #: Per-DNN rates its regression+kNN core predicted for the last
        #: plan — the quantity whose accuracy hinges on the profiling
        #: corpus (scored by the sample-efficiency study).
        self.last_predicted_rates: np.ndarray | None = None
        rng = np.random.default_rng(seed)
        self.latency_model = LinearLatencyModel(platform).fit(
            pool_models(), noise_rng=rng, noise_std=0.05,
        )
        self._knn_features: list[np.ndarray] = []
        self._knn_inflation: list[float] = []
        self._knn_component: list[int] = []
        self._collect_profile(rng, profiling_runs)

    # ------------------------------------------------------------------
    def _collect_profile(self, rng: np.random.Generator, runs: int) -> None:
        """Measure random co-execution runs to learn contention inflation."""
        for _ in range(runs):
            k = int(rng.integers(2, 4))
            names = rng.choice(MODEL_POOL, size=k, replace=False)
            workload = [get_model(n) for n in names]
            mapping = random_partition_mapping(
                workload, self.platform.num_components, rng)
            result = simulate(workload, mapping, self.platform)
            demands = compute_stage_demands(workload, mapping, self.platform)
            for demand in demands:
                rate = result.rates[demand.dnn_index]
                solo_rate = 1.0 / demand.seconds_per_inference
                inflation = float(solo_rate / max(rate, 1e-9))
                stage = demand.stage
                model = workload[demand.dnn_index]
                feats = np.mean([
                    block_features(model.blocks[b])
                    for b in range(stage.block_start, stage.block_end)
                ], axis=0)
                self._knn_features.append(feats)
                self._knn_inflation.append(min(inflation, 50.0))
                self._knn_component.append(demand.component)
        self._knn_matrix = np.stack(self._knn_features)
        self._knn_inflation_arr = np.asarray(self._knn_inflation)
        self._knn_component_arr = np.asarray(self._knn_component)

    def _expected_inflation(self, feats: np.ndarray, component: int) -> float:
        mask = self._knn_component_arr == component
        if not mask.any():
            return 1.0
        candidates = self._knn_matrix[mask]
        dists = ((candidates - feats) ** 2).sum(axis=1)
        k = min(self.K_NEIGHBORS, len(dists))
        nearest = np.argpartition(dists, k - 1)[:k]
        return float(self._knn_inflation_arr[mask][nearest].mean())

    # ------------------------------------------------------------------
    def plan(self, workload: list[ModelSpec],
             priorities: np.ndarray | None = None) -> MappingDecision:
        t0 = time.perf_counter()
        if not workload:
            raise ValueError("workload must not be empty")
        load = np.zeros(self.platform.num_components)
        assignments: list[tuple[int, ...]] = []
        predicted_rates: list[float] = []
        for model in workload:
            assignment: list[int] = []
            predicted_seconds = 0.0
            for block in model.blocks:
                feats = block_features(block)
                costs = []
                for c in range(self.platform.num_components):
                    base = self.latency_model.predict(block, c)
                    inflation = self._expected_inflation(feats, c)
                    costs.append(load[c] + base * inflation)
                chosen = int(np.argmin(costs))
                base = self.latency_model.predict(block, chosen)
                corrected = base * self._expected_inflation(feats, chosen)
                load[chosen] += corrected
                predicted_seconds += corrected
                assignment.append(chosen)
            assignments.append(tuple(assignment))
            predicted_rates.append(1.0 / max(predicted_seconds, 1e-9))
        self.last_predicted_rates = np.asarray(predicted_rates)
        self.last_wall_seconds = time.perf_counter() - t0
        return MappingDecision(Mapping(tuple(assignments)),
                               decision_seconds=self.MODELED_DECISION_S)
