"""MOSAIC baseline (Han et al., PACT 2019).

MOSAIC slices a model with a linear-regression cost model trained on
single-DNN profiles (correlating layer sizes with computational needs) and
distributes the slices across components.  As the paper notes, the model is
trained on single-DNN cases only: each DNN is sliced *independently* to
minimise its own predicted pipeline bottleneck, which systematically
overloads the GPU under multi-DNN workloads and supports no priorities.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from ..core.manager import Manager
from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..sim.dynamic import MappingDecision
from ..zoo.layers import ModelSpec
from ..zoo.registry import pool_models
from .profiling import LinearLatencyModel

__all__ = ["Mosaic"]


class Mosaic(Manager):
    """Linear-regression slicer, contention-blind across DNNs."""

    name = "mosaic"

    #: Modeled on-device decision latency (Sec. V-D: ~1 s).
    MODELED_DECISION_S = 0.9

    #: Most pipeline slices one DNN is cut into.
    MAX_STAGES = 3

    def __init__(self, platform: Platform):
        self.platform = platform
        self.latency_model = LinearLatencyModel(platform).fit(
            pool_models(), noise_rng=np.random.default_rng(0),
            noise_std=0.05,
        )

    # ------------------------------------------------------------------
    def plan(self, workload: list[ModelSpec],
             priorities: np.ndarray | None = None) -> MappingDecision:
        t0 = time.perf_counter()
        if not workload:
            raise ValueError("workload must not be empty")
        assignments = tuple(self._slice_single(m) for m in workload)
        self.last_wall_seconds = time.perf_counter() - t0
        return MappingDecision(Mapping(assignments),
                               decision_seconds=self.MODELED_DECISION_S)

    # ------------------------------------------------------------------
    def _slice_single(self, model: ModelSpec) -> tuple[int, ...]:
        """Best predicted single-DNN slicing (bottleneck-minimal)."""
        n = model.num_blocks
        d = self.platform.num_components
        pred = np.stack([
            self.latency_model.predict_blocks(model, c) for c in range(d)
        ])  # (components, blocks)
        prefix = np.concatenate([np.zeros((d, 1)), pred.cumsum(axis=1)],
                                axis=1)

        best_cost = np.inf
        best: tuple[int, ...] = tuple([0] * n)
        max_stages = min(self.MAX_STAGES, n, d)
        for n_stages in range(1, max_stages + 1):
            placements = list(itertools.permutations(range(d), n_stages))
            for cuts in itertools.combinations(range(1, n), n_stages - 1):
                bounds = (0, *cuts, n)
                segs = np.stack([
                    prefix[:, hi] - prefix[:, lo]
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ])  # (stages, components)
                # Pipeline slices must land on distinct components (slices
                # stacked on one device serialise); the single-DNN-optimal
                # choice minimises the predicted bottleneck stage.
                for comps in placements:
                    cost = max(segs[s, c] for s, c in enumerate(comps))
                    if cost < best_cost:
                        best_cost = cost
                        assignment = []
                        for (lo, hi), c in zip(zip(bounds[:-1], bounds[1:]),
                                               comps):
                            assignment.extend([c] * (hi - lo))
                        best = tuple(assignment)
        return best
