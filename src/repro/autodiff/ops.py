"""Composite and structured operations for the autodiff engine.

Convolutions are implemented with a kernel-position loop: for every kernel
offset the contribution is a single strided slice times a weight plane, which
keeps both the forward and backward passes fully vectorised in numpy without
materialising im2col buffers.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "concat",
    "pad2d",
    "pad1d",
    "softmax",
    "conv2d",
    "depthwise_conv2d",
    "conv1d",
    "straight_through",
]


# ----------------------------------------------------------------------
# Joining
# ----------------------------------------------------------------------
def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * grad.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(idx)])

    return Tensor._make(out_data, tuple(tensors), backward)


# ----------------------------------------------------------------------
# Padding
# ----------------------------------------------------------------------
def pad2d(x: Tensor, pad: tuple[int, int]) -> Tensor:
    """Zero-pad the trailing two (spatial) axes of an NCHW tensor."""
    ph, pw = pad
    if ph == 0 and pw == 0:
        return x
    out_data = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    def backward(grad):
        if x.requires_grad:
            h, w = x.shape[-2], x.shape[-1]
            x._accumulate(grad[..., ph : ph + h, pw : pw + w])

    return Tensor._make(out_data, (x,), backward)


def pad1d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the trailing axis of an NCL tensor."""
    if pad == 0:
        return x
    out_data = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))

    def backward(grad):
        if x.requires_grad:
            length = x.shape[-1]
            x._accumulate(grad[..., pad : pad + length])

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Softmax
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        if x.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Convolutions (kernel-position loop)
# ----------------------------------------------------------------------
def _out_size(n: int, k: int, stride: int) -> int:
    return (n - k) // stride + 1


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an NCHW tensor.

    ``weight`` has shape (F, C, KH, KW).
    """
    if padding:
        x = pad2d(x, (padding, padding))
    n, c, h, w = x.shape
    f, c_w, kh, kw = weight.shape
    if c_w != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    oh, ow = _out_size(h, kh, stride), _out_size(w, kw, stride)
    xd, wd = x.data, weight.data

    out_data = np.zeros((n, f, oh, ow), dtype=xd.dtype)
    for ki in range(kh):
        for kj in range(kw):
            patch = xd[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
            # (n, c, oh, ow) x (f, c) -> (n, f, oh, ow)
            out_data += np.einsum("nchw,fc->nfhw", patch, wd[:, :, ki, kj], optimize=True)
    if bias is not None:
        out_data += bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for ki in range(kh):
                for kj in range(kw):
                    gx[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += (
                        np.einsum("nfhw,fc->nchw", grad, wd[:, :, ki, kj], optimize=True)
                    )
            x._accumulate(gx)
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for ki in range(kh):
                for kj in range(kw):
                    patch = xd[
                        :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
                    ]
                    gw[:, :, ki, kj] = np.einsum("nchw,nfhw->fc", patch, grad, optimize=True)
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution (one filter per channel).

    ``weight`` has shape (C, KH, KW); channel ``c`` of the output only sees
    channel ``c`` of the input.  The estimator uses this because the channels
    of the mapping tensor Q correspond to statistically independent DNNs.
    """
    if padding:
        x = pad2d(x, (padding, padding))
    n, c, h, w = x.shape
    c_w, kh, kw = weight.shape
    if c_w != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    oh, ow = _out_size(h, kh, stride), _out_size(w, kw, stride)
    xd, wd = x.data, weight.data

    out_data = np.zeros((n, c, oh, ow), dtype=xd.dtype)
    for ki in range(kh):
        for kj in range(kw):
            patch = xd[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
            out_data += patch * wd[None, :, ki, kj, None, None]
    if bias is not None:
        out_data += bias.data.reshape(1, c, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for ki in range(kh):
                for kj in range(kw):
                    gx[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += (
                        grad * wd[None, :, ki, kj, None, None]
                    )
            x._accumulate(gx)
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for ki in range(kh):
                for kj in range(kw):
                    patch = xd[
                        :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
                    ]
                    gw[:, ki, kj] = (patch * grad).sum(axis=(0, 2, 3))
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D convolution over an NCL tensor; ``weight`` is (F, C, K)."""
    if padding:
        x = pad1d(x, padding)
    n, c, length = x.shape
    f, c_w, k = weight.shape
    if c_w != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    ol = _out_size(length, k, stride)
    xd, wd = x.data, weight.data

    out_data = np.zeros((n, f, ol), dtype=xd.dtype)
    for ki in range(k):
        patch = xd[:, :, ki : ki + stride * ol : stride]
        out_data += np.einsum("ncl,fc->nfl", patch, wd[:, :, ki], optimize=True)
    if bias is not None:
        out_data += bias.data.reshape(1, f, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for ki in range(k):
                gx[:, :, ki : ki + stride * ol : stride] += np.einsum(
                    "nfl,fc->ncl", grad, wd[:, :, ki], optimize=True
                )
            x._accumulate(gx)
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for ki in range(k):
                patch = xd[:, :, ki : ki + stride * ol : stride]
                gw[:, :, ki] = np.einsum("ncl,nfl->fc", patch, grad, optimize=True)
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))

    return Tensor._make(out_data, parents, backward)


# ----------------------------------------------------------------------
# Miscellaneous
# ----------------------------------------------------------------------
def straight_through(quantized: Tensor, continuous: Tensor) -> Tensor:
    """VQ-VAE straight-through estimator.

    Forward returns ``quantized``; the gradient bypasses the (non-
    differentiable) quantisation and flows into ``continuous`` unchanged.
    """

    def backward(grad):
        if continuous.requires_grad:
            continuous._accumulate(grad)

    return Tensor._make(quantized.data.copy(), (continuous,), backward)
