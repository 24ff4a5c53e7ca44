"""Shared profiling utilities for the regression-based baselines.

MOSAIC and ODMDEF both fit models on single-DNN profiling data.  On the
board this means running layer groups on each component and recording
latency; here the oracle is the hardware latency model, optionally with
measurement noise.
"""

from __future__ import annotations

import numpy as np

from ..hw.platform import Platform
from ..sim.tables import tables_for
from ..zoo.layers import BlockSpec, ModelSpec

__all__ = ["block_features", "LinearLatencyModel"]

_NUM_FEATURES = 5


def block_features(block: BlockSpec) -> np.ndarray:
    """Regression features of a block (MOSAIC correlates layer input sizes
    with computational needs; we keep the same spirit)."""
    return np.array([
        1.0,
        np.log1p(block.macs),
        np.log1p(block.elem_ops),
        np.log1p(block.input_bytes + block.output_bytes),
        np.log1p(len(block.layers)),
    ])


class LinearLatencyModel:
    """Per-component least-squares latency predictor on block features."""

    def __init__(self, platform: Platform):
        self.platform = platform
        self._coef: list[np.ndarray] = []

    def fit(self, models: list[ModelSpec],
            noise_rng: np.random.Generator | None = None,
            noise_std: float = 0.0) -> "LinearLatencyModel":
        """Fit one regressor per component on single-DNN block profiles."""
        feats = []
        for model in models:
            for block in model.blocks:
                feats.append(block_features(block))
        x = np.stack(feats)

        tables = tables_for(self.platform)
        self._coef = []
        for c in range(self.platform.num_components):
            targets = []
            for model in models:
                targets.extend(tables.block_costs(model, c)[0])
            y = np.log1p(np.asarray(targets))
            if noise_rng is not None and noise_std > 0:
                y = y + noise_rng.normal(0.0, noise_std, size=y.shape)
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            self._coef.append(coef)
        return self

    def predict(self, block: BlockSpec, component: int) -> float:
        """Predicted latency (seconds) of ``block`` on ``component``."""
        if not self._coef:
            raise RuntimeError("fit() must be called before predict()")
        log_latency = float(block_features(block) @ self._coef[component])
        return float(np.expm1(np.clip(log_latency, 0.0, 20.0)))

    def predict_blocks(self, model: ModelSpec, component: int) -> np.ndarray:
        return np.array([self.predict(b, component) for b in model.blocks])
