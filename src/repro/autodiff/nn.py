"""Neural-network module system on top of the autodiff engine.

Mirrors the small subset of ``torch.nn`` needed by the RankMap models: a
:class:`Module` base with parameter discovery, linear/convolutional layers,
2-D batch normalisation, and the two attention variants the paper uses
(softmax self-attention in the estimator backbone, linear attention in the
per-DNN decoder streams).
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "DepthwiseConv2d",
    "Conv1d",
    "BatchNorm2d",
    "ReLU",
    "SelfAttention2d",
    "LinearAttention",
]


class Parameter(Tensor):
    """A tensor registered as trainable state of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter/state discovery."""

    def __init__(self):
        self.training = True

    # -- traversal ------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        params: list[Parameter] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            self._collect(value, params, seen)
        return params

    def _collect(self, value, params: list[Parameter], seen: set[int]) -> None:
        if isinstance(value, Parameter):
            if id(value) not in seen:
                seen.add(id(value))
                params.append(value)
        elif isinstance(value, Module):
            for p in value.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._collect(item, params, seen)
        elif isinstance(value, dict):
            for item in value.values():
                self._collect(item, params, seen)

    def modules(self) -> list["Module"]:
        """This module plus all nested submodules."""
        found: list[Module] = [self]
        for value in self.__dict__.values():
            found.extend(self._collect_modules(value))
        return found

    def _collect_modules(self, value) -> list["Module"]:
        if isinstance(value, Module):
            return value.modules()
        if isinstance(value, (list, tuple)):
            out: list[Module] = []
            for item in value:
                out.extend(self._collect_modules(item))
            return out
        return []

    # -- mode switches --------------------------------------------------
    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    def astype(self, dtype) -> "Module":
        """Cast all parameters and numpy buffers (e.g. BN running stats)."""
        for m in self.modules():
            for key, value in m.__dict__.items():
                if isinstance(value, Parameter):
                    value.data = value.data.astype(dtype)
                elif isinstance(value, np.ndarray):
                    m.__dict__[key] = value.astype(dtype)
        return self

    # -- state (de)serialisation -----------------------------------------
    def _buffers(self) -> list[tuple["Module", str]]:
        """Non-parameter numpy buffers (e.g. batch-norm running stats), in
        deterministic traversal order."""
        found = []
        for m in self.modules():
            for key in sorted(m.__dict__):
                if isinstance(m.__dict__[key], np.ndarray):
                    found.append((m, key))
        return found

    def state_arrays(self) -> list[np.ndarray]:
        """Parameters followed by buffers (load with :meth:`load_arrays`)."""
        arrays = [p.data.copy() for p in self.parameters()]
        arrays.extend(m.__dict__[key].copy() for m, key in self._buffers())
        return arrays

    def load_arrays(self, arrays: list[np.ndarray]) -> None:
        params = self.parameters()
        buffers = self._buffers()
        expected = len(params) + len(buffers)
        if len(arrays) != expected:
            raise ValueError(f"expected {expected} arrays, got {len(arrays)}")
        for p, a in zip(params, arrays):
            if p.data.shape != a.shape:
                raise ValueError(f"shape mismatch: {p.data.shape} vs {a.shape}")
            p.data = a.copy()
        for (m, key), a in zip(buffers, arrays[len(params):]):
            if m.__dict__[key].shape != a.shape:
                raise ValueError(
                    f"buffer {key} shape mismatch: "
                    f"{m.__dict__[key].shape} vs {a.shape}"
                )
            m.__dict__[key] = a.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


def _kaiming(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


class Linear(Module):
    """Affine map y = x W^T + b."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.weight = Parameter(_kaiming(rng, (out_features, in_features), in_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """Standard 2-D convolution (NCHW)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 bias: bool = True):
        super().__init__()
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            _kaiming(rng, (out_channels, in_channels, kernel, kernel), fan_in)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, stride=self.stride,
                          padding=self.padding)


class DepthwiseConv2d(Module):
    """Depthwise 2-D convolution: one kernel per channel (NCHW)."""

    def __init__(self, channels: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0, bias: bool = True):
        super().__init__()
        fan_in = kernel * kernel
        self.weight = Parameter(_kaiming(rng, (channels, kernel, kernel), fan_in))
        self.bias = Parameter(np.zeros(channels)) if bias else None
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ops.depthwise_conv2d(x, self.weight, self.bias, stride=self.stride,
                                    padding=self.padding)


class Conv1d(Module):
    """Standard 1-D convolution (NCL); used by the VQ-VAE encoder/decoder."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 bias: bool = True):
        super().__init__()
        fan_in = in_channels * kernel
        self.weight = Parameter(_kaiming(rng, (out_channels, in_channels, kernel), fan_in))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv1d(x, self.weight, self.bias, stride=self.stride,
                          padding=self.padding)


#: Running-statistics momentum and variance epsilon of :class:`BatchNorm2d`.
_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel with running stats."""

    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            self.running_mean = (
                (1 - _BN_MOMENTUM) * self.running_mean
                + _BN_MOMENTUM * mu.data.reshape(-1)
            )
            self.running_var = (
                (1 - _BN_MOMENTUM) * self.running_var
                + _BN_MOMENTUM * var.data.reshape(-1)
            )
        else:
            mu = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        inv = (var + _BN_EPS) ** -0.5
        normed = (x - mu) * inv
        return normed * self.gamma.reshape(1, -1, 1, 1) + self.beta.reshape(1, -1, 1, 1)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class SelfAttention2d(Module):
    """Single-head softmax self-attention over the spatial grid of NCHW.

    Tokens are the H*W spatial positions; channels are features.  Includes a
    residual connection with a learned gate, following common practice for
    attention blocks inside convolutional backbones.
    """

    def __init__(self, channels: int, rng: np.random.Generator, head_dim: int | None = None):
        super().__init__()
        d = head_dim or channels
        self.q = Linear(channels, d, rng, bias=False)
        self.k = Linear(channels, d, rng, bias=False)
        self.v = Linear(channels, channels, rng, bias=False)
        self.gate = Parameter(np.zeros(1))
        self.scale = 1.0 / math.sqrt(d)

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        tokens = x.reshape(n, c, h * w).swapaxes(1, 2)  # (n, hw, c)
        q, k, v = self.q(tokens), self.k(tokens), self.v(tokens)
        attn = ops.softmax((q @ k.swapaxes(1, 2)) * self.scale, axis=-1)
        out = attn @ v  # (n, hw, c)
        out = out.swapaxes(1, 2).reshape(n, c, h, w)
        return x + out * self.gate


class LinearAttention(Module):
    """Efficient attention with linear complexity (Shen et al., WACV 2021).

    Instead of the T×T score matrix, softmax is applied separately to queries
    (over features) and keys (over tokens); the context matrix K^T V is then
    only d×d.  Used for the estimator's per-DNN decoder streams.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 head_dim: int = 32):
        super().__init__()
        self.q = Linear(in_features, head_dim, rng, bias=False)
        self.k = Linear(in_features, head_dim, rng, bias=False)
        self.v = Linear(in_features, out_features, rng, bias=False)

    def forward(self, x: Tensor) -> Tensor:
        """``x`` is (N, T, F); returns (N, T, out_features)."""
        q = ops.softmax(self.q(x), axis=-1)       # feature-wise
        k = ops.softmax(self.k(x), axis=1)        # token-wise
        v = self.v(x)
        context = k.swapaxes(1, 2) @ v            # (N, d, out)
        return q @ context                        # (N, T, out)
