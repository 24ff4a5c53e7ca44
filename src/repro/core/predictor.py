"""Rate predictors: how a manager scores candidate mappings.

``EstimatorPredictor`` is the paper's path — Q tensor through the learned
multi-task CNN.  ``OraclePredictor`` queries the simulator directly; it
stands in for on-board measurement and is used by the GA baseline (which
evaluates every chromosome on the device) and by search ablations.
"""

from __future__ import annotations

import numpy as np

from ..estimator.model import ThroughputEstimator
from ..hw.platform import Platform
from ..mapping.mapping import Mapping
from ..mapping.qtensor import build_q_tensor_batch
from ..obs import NULL_RECORDER, Recorder
from ..obs.registry import (
    PREDICT_BATCH_SIZE,
    PREDICT_CALLS,
    PREDICT_MODELED_S,
)
from ..sim.cache import EvaluationCache
from ..vqvae.train import EmbeddingCache
from ..zoo.layers import ModelSpec

__all__ = ["RatePredictor", "EstimatorPredictor", "OraclePredictor"]


class RatePredictor:
    """Interface: per-DNN rate predictions for a batch of mappings.

    ``recorder`` is the telemetry sink scoring metrics flow to
    (:mod:`repro.obs`); it defaults to the no-op
    :data:`~repro.obs.NULL_RECORDER` and is replaced per run by
    :func:`repro.runner.resolve_predictor` when a scenario observes.
    Predictions never depend on it.
    """

    #: Telemetry sink for scoring metrics; no-op unless a run observes.
    recorder: Recorder = NULL_RECORDER

    def predict(self, workload: list[ModelSpec],
                mappings: list[Mapping]) -> np.ndarray:  # pragma: no cover
        """Per-DNN rates, one row per candidate mapping: (B, len(workload))."""
        raise NotImplementedError

    def predict_batch(self, workload: list[ModelSpec],
                      mappings: list[Mapping]) -> np.ndarray:
        """Batched entry point for the search/replan hot paths.

        The base implementation defers to :meth:`predict` (which already
        takes a candidate list); implementations with a genuinely fused
        fast path — stacked Q-tensor assembly, one batched forward pass —
        override this, and the hot callers (MCTS rollout scoring,
        warm-start candidate rosters) call it explicitly.
        """
        return self.predict(workload, mappings)

    @property
    def board_latency_per_eval(self) -> float:
        """Modeled on-device seconds per candidate evaluation (Sec. V-D)."""
        raise NotImplementedError  # pragma: no cover


class EstimatorPredictor(RatePredictor):
    """Predict rates with the trained multi-task estimator.

    Candidate batches are featurized through one fused
    :func:`~repro.mapping.qtensor.build_q_tensor_batch` call and scored by
    a single stacked :meth:`~repro.estimator.ThroughputEstimator.predict_rates`
    forward pass — the estimator-path analogue of the oracle's
    ``simulate_batch`` treatment.  Each *modeled* candidate evaluation
    still costs :attr:`board_latency_per_eval` (0.04 s, the paper's
    learned decision latency) instead of the oracle's full measurement
    window.
    """

    def __init__(self, estimator: ThroughputEstimator,
                 embedder: EmbeddingCache):
        self.estimator = estimator
        self.embedder = embedder

    def predict(self, workload: list[ModelSpec],
                mappings: list[Mapping]) -> np.ndarray:
        """Per-DNN rates for ``mappings``; defers to :meth:`predict_batch`."""
        return self.predict_batch(workload, mappings)

    def predict_batch(self, workload: list[ModelSpec],
                      mappings: list[Mapping]) -> np.ndarray:
        """Fused batch scoring: one stacked Q assembly + one forward pass.

        Bit-compatible with per-mapping Q-tensor assembly (the oracle in
        ``tests/oracles/qtensor_reference.py``), locked by
        ``tests/property/test_estimator_batch_equivalence.py``.
        """
        cfg = self.estimator.config
        if len(workload) > cfg.max_dnns:
            raise ValueError(
                f"workload of {len(workload)} exceeds estimator capacity "
                f"{cfg.max_dnns}"
            )
        if not mappings:
            return np.zeros((0, len(workload)))
        if self.recorder.enabled:
            self.recorder.count(PREDICT_CALLS)
            self.recorder.observe(PREDICT_BATCH_SIZE, len(mappings))
            self.recorder.count(
                PREDICT_MODELED_S,
                len(mappings) * self.board_latency_per_eval)
        embeddings = self.embedder.for_workload(workload)
        q = build_q_tensor_batch(workload, mappings, embeddings,
                                 cfg.num_components, cfg.max_dnns,
                                 cfg.max_layers).astype(np.float32)
        return self.estimator.predict_rates(q, num_dnns=len(workload))

    @property
    def board_latency_per_eval(self) -> float:
        """One estimator forward pass on the board: the paper's 0.04 s/eval
        learned decision latency (~30 s for the full search budget)."""
        return 0.04


class OraclePredictor(RatePredictor):
    """Measure rates on the (simulated) board itself.

    Candidate batches are solved through one batched fixed-point call and
    memoised in an :class:`~repro.sim.cache.EvaluationCache`, so MCTS
    rollouts and RankMap's relaxation retries never re-solve a mapping the
    search has already visited.  Pass a shared ``cache`` to pool results
    across managers on the same platform.
    """

    def __init__(self, platform: Platform,
                 measurement_window_s: float = 2.0,
                 cache: EvaluationCache | None = None):
        self.platform = platform
        self.measurement_window_s = measurement_window_s
        self.cache = cache if cache is not None else EvaluationCache(platform)
        if self.cache.platform != platform:
            raise ValueError("cache is bound to a different platform")

    def predict(self, workload: list[ModelSpec],
                mappings: list[Mapping]) -> np.ndarray:
        """Measured rates for ``mappings``: one cached batched solve."""
        results = self.cache.simulate(workload, mappings)
        return np.stack([r.rates for r in results])

    @property
    def board_latency_per_eval(self) -> float:
        """Measuring a mapping on the device means running it for a window."""
        return self.measurement_window_s
