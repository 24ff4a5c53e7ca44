"""Gradient-descent optimisation for the autodiff engine."""

from __future__ import annotations

import numpy as np

from .nn import Parameter

__all__ = ["Adam", "clip_grad_norm", "CosineSchedule"]


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale  # rebind: grads may be shared views
    return norm


#: Adam's moment decay rates and denominator epsilon (Kingma & Ba's defaults).
_BETA1, _BETA2 = 0.9, 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = _BETA1, _BETA2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class CosineSchedule:
    """Cosine learning-rate decay from ``lr_max`` to ``lr_min`` over ``steps``."""

    def __init__(self, optimizer, lr_max: float, lr_min: float, steps: int):
        self.optimizer = optimizer
        self.lr_max = lr_max
        self.lr_min = lr_min
        self.steps = max(1, steps)
        self._step = 0

    def step(self) -> float:
        frac = min(1.0, self._step / self.steps)
        lr = self.lr_min + 0.5 * (self.lr_max - self.lr_min) * (1 + np.cos(np.pi * frac))
        self.optimizer.lr = float(lr)
        self._step += 1
        return float(lr)
