"""Finite-difference gradient checking for the autodiff engine.

Used pervasively by the test suite to verify that every operator's analytic
gradient matches a central-difference estimate.  Only tests run it, so it
lives under ``tests/oracles/`` and is imported as ``tests.oracles.gradcheck``.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import Tensor

__all__ = ["numeric_gradient", "check_gradients"]


def numeric_gradient(fn, x: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` w.r.t. ``x``."""
    grad = np.zeros_like(x.data, dtype=np.float64)
    flat = x.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(fn().data)
        flat[i] = orig - eps
        lo = float(fn().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradients(fn, inputs: list[Tensor], eps: float = 1e-6,
                    rtol: float = 1e-4, atol: float = 1e-6) -> float:
    """Compare analytic and numeric gradients of scalar ``fn`` over ``inputs``.

    Returns the worst absolute error observed; raises ``AssertionError`` when
    any gradient disagrees beyond tolerance.
    """
    for t in inputs:
        t.zero_grad()
    out = fn()
    if out.data.size != 1:
        raise ValueError("check_gradients requires a scalar-valued function")
    out.backward()

    worst = 0.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(fn, t, eps=eps)
        err = np.abs(analytic - numeric)
        worst = max(worst, float(err.max()) if err.size else 0.0)
        if not np.allclose(analytic, numeric, rtol=rtol, atol=atol):
            idx = np.unravel_index(np.argmax(err), err.shape) if err.size else ()
            raise AssertionError(
                f"gradient mismatch at {idx}: analytic={analytic[idx]:.8f} "
                f"numeric={numeric[idx]:.8f} (max err {err.max():.2e})"
            )
    return worst
