"""Multi-task attention-based throughput estimator (Sec. IV-D).

Architecture follows the paper: a shared backbone of three residual blocks,
each stacking two depthwise convolutions with self-attention modules plus a
channel-mixing convolution with batch normalisation; then one decoder
stream per DNN channel built from linear attention (Shen et al., 2021) and
two fully connected layers.  Depthwise convolutions and attention are used
because the DNN channels of Q are statistically independent.

The network predicts ``log1p(inferences/s)`` per DNN — the log transform
stabilises the 0.05..70 inf/s dynamic range of the board.  The paper's
instance has ~3.7 M parameters; the default configuration here is a
width-scaled version of the same topology (see DESIGN.md substitutions).

Training runs :meth:`ThroughputEstimator.forward` on the autodiff substrate
in float32 end to end (Python scalars take the tensor's dtype); inference
(:meth:`ThroughputEstimator.predict_log_rates`) runs a folded float32 numpy
path, tested against that forward as its oracle (docs/estimator.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..autodiff import Tensor, nn

__all__ = ["EstimatorConfig", "ThroughputEstimator"]


@dataclass(frozen=True)
class EstimatorConfig:
    """Shapes and widths of the estimator."""

    max_dnns: int = 5
    max_layers: int = 96
    num_components: int = 3
    embed_dim: int = 16
    stem_channels: int = 16
    block_channels: tuple[int, int, int] = (24, 32, 48)
    attn_dim: int = 16
    decoder_dim: int = 32

    @property
    def width(self) -> int:
        """Q-tensor feature width: one embed-sized column block per component."""
        return self.num_components * self.embed_dim


def _fold(conv: nn.Conv2d, bn: nn.BatchNorm2d) -> tuple[np.ndarray, np.ndarray]:
    """``conv`` then eval-mode ``bn`` as a float32 im2col weight (9C, F) and
    bias, refolded per call: the optimizer updates weights in place."""
    scale = (bn.gamma.data
             / np.sqrt(bn.running_var + nn._BN_EPS)).astype(np.float32)
    weight = conv.weight.data * scale[:, None, None, None]
    bias = (conv.bias.data - bn.running_mean) * scale + bn.beta.data
    return (weight.transpose(2, 3, 1, 0).reshape(-1, scale.size),
            bias.astype(np.float32))


def _bordered(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A zero buffer one cell wider on each side of the spatial axes of
    channels-last ``shape`` (the next 3×3 op's padding), and its interior."""
    b, h, w, c = shape
    buf = np.zeros((b, h + 2, w + 2, c), np.float32)
    return buf, buf[:, 1:-1, 1:-1]


def _conv(xp: np.ndarray, weight, bias, stride: int) -> np.ndarray:
    """3×3 conv of zero-bordered channels-last ``xp``: one GEMM per batch
    row, (B, OH·OW, 9C) @ (9C, F) -> (B, OH, OW, F)."""
    b, hp, wp, c = xp.shape
    oh, ow = (hp - 3) // stride + 1, (wp - 3) // stride + 1
    sb, sh, sw, sc = xp.strides
    cols = as_strided(xp, (b, oh, ow, 3, 3, c),
                      (sb, stride * sh, stride * sw, sh, sw, sc),
                      writeable=False).reshape(b, oh * ow, 9 * c)
    out = np.matmul(cols, weight)
    out += bias
    return out.reshape(b, oh, ow, -1)


def _depthwise_relu(xp: np.ndarray, conv: nn.DepthwiseConv2d) -> np.ndarray:
    """relu(3×3 depthwise conv) of zero-bordered channels-last ``xp``: nine
    multiply-adds over whole (W·C) rows, the taps tiled along the row."""
    b, hp, wp, c = xp.shape
    h, w = hp - 2, wp - 2
    rows = xp.reshape(b, hp, wp * c)
    taps = np.tile(conv.weight.data.transpose(1, 2, 0), (1, 1, w))
    out = np.multiply(rows[:, :h, :w * c], taps[0, 0])
    tap = np.empty_like(out)
    for i, j in list(np.ndindex(3, 3))[1:]:
        out += np.multiply(rows[:, i:i + h, j * c:(j + w) * c], taps[i, j],
                           out=tap)
    out += np.tile(conv.bias.data, w)
    return np.maximum(out, 0.0, out=out).reshape(b, h, w, c)


def _softmax_(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of ``x`` along ``axis``, in place."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def _attend(x: np.ndarray, attn: nn.SelfAttention2d, out: np.ndarray) -> None:
    """Eval-mode ``SelfAttention2d`` of contiguous channels-last ``x`` into
    ``out``, scale and gate folded into the projections.  Scores are held
    keys-major (the softmax reduces across rows); a ones column after ``v``
    makes the product with the exponentials carry their sums."""
    b, h, w, c = x.shape
    d = attn.q.weight.shape[0]
    tokens = x.reshape(b, h * w, c)
    proj = np.concatenate([attn.q.weight.data * attn.scale,
                           attn.k.weight.data,
                           attn.v.weight.data * attn.gate.data]).T
    qkv = np.empty((b, h * w, 2 * d + c + 1), np.float32)
    np.matmul(tokens, proj, out=qkv[..., :-1])
    qkv[..., -1] = 1.0
    scores = np.matmul(qkv[..., d:2 * d], qkv[..., :d].swapaxes(1, 2))
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    mixed = np.matmul(scores.swapaxes(1, 2), qkv[..., 2 * d:])
    np.divide(mixed[..., :c], mixed[..., c:], out=mixed[..., :c])
    np.add(x, mixed[..., :c].reshape(x.shape), out=out)


class _ResidualBlock(nn.Module):
    """Backbone unit: strided channel-mixing shortcut around
    (depthwise conv -> self-attention) x 2 -> conv -> batch norm."""

    def __init__(self, c_in: int, c_out: int, stride: int,
                 rng: np.random.Generator, attn_dim: int):
        super().__init__()
        self.down = nn.Conv2d(c_in, c_out, 3, rng, stride=stride, padding=1)
        self.bn_down = nn.BatchNorm2d(c_out)
        self.dw1 = nn.DepthwiseConv2d(c_out, 3, rng, padding=1)
        self.attn1 = nn.SelfAttention2d(c_out, rng, head_dim=attn_dim)
        self.dw2 = nn.DepthwiseConv2d(c_out, 3, rng, padding=1)
        self.attn2 = nn.SelfAttention2d(c_out, rng, head_dim=attn_dim)
        self.conv = nn.Conv2d(c_out, c_out, 3, rng, padding=1)
        self.bn = nn.BatchNorm2d(c_out)

    def forward(self, x: Tensor) -> Tensor:
        shortcut = self.bn_down(self.down(x)).relu()
        h = self.attn1(self.dw1(shortcut).relu())
        h = self.attn2(self.dw2(h).relu())
        h = self.bn(self.conv(h))
        return (h + shortcut).relu()

    def infer(self, xp: np.ndarray) -> np.ndarray:
        """Eval-mode :meth:`forward` on zero-bordered channels-last ``xp``;
        returns the zero-bordered output."""
        pre = _conv(xp, *_fold(self.down, self.bn_down), self.down.stride)
        hp, shortcut = _bordered(pre.shape)
        np.maximum(pre, 0.0, out=shortcut)
        for dw, attn in ((self.dw1, self.attn1), (self.dw2, self.attn2)):
            h = _depthwise_relu(hp, dw)
            hp, inner = _bordered(h.shape)
            _attend(h, attn, inner)
        pre = _conv(hp, *_fold(self.conv, self.bn), 1)
        pre += shortcut
        out, inner = _bordered(pre.shape)
        np.maximum(pre, 0.0, out=inner)
        return out


class _DecoderStream(nn.Module):
    """Per-DNN head: linear attention over backbone tokens + 2 FC layers."""

    def __init__(self, in_features: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__()
        self.attn = nn.LinearAttention(in_features, hidden, rng,
                                       head_dim=hidden)
        self.fc1 = nn.Linear(hidden, hidden, rng)
        self.fc2 = nn.Linear(hidden, 1, rng)

    def forward(self, tokens: Tensor) -> Tensor:
        h = self.attn(tokens)          # (B, T, hidden)
        h = h.mean(axis=1)             # (B, hidden)
        h = self.fc1(h).relu()
        return self.fc2(h)             # (B, 1)

    def infer(self, tokens: np.ndarray) -> np.ndarray:
        """Eval-mode :meth:`forward` on ``tokens`` (B, T, C) -> (B,): the
        token mean commutes with the product with the context, so it comes
        first; the FC layers stay (B, 1, d), one contraction per row."""
        attn = self.attn
        d = attn.q.weight.shape[0]
        proj = np.concatenate([attn.q.weight.data, attn.k.weight.data,
                               attn.v.weight.data]).T
        qkv = np.matmul(tokens, proj)
        q = _softmax_(qkv[..., :d], axis=-1).mean(axis=1, keepdims=True)
        k = _softmax_(qkv[..., d:2 * d], axis=1)
        h = np.matmul(q, np.matmul(k.swapaxes(1, 2), qkv[..., 2 * d:]))
        h = np.matmul(h, self.fc1.weight.data.T)
        h += self.fc1.bias.data
        np.maximum(h, 0.0, out=h)
        h = np.matmul(h, self.fc2.weight.data.T)
        h += self.fc2.bias.data
        return h[:, 0, 0]


class ThroughputEstimator(nn.Module):
    """Mapping tensor Q -> per-DNN log1p(inferences/s)."""

    def __init__(self, rng: np.random.Generator,
                 config: EstimatorConfig | None = None):
        super().__init__()
        config = config if config is not None else EstimatorConfig()
        self.config = config
        c1, c2, c3 = config.block_channels
        self.stem = nn.Conv2d(config.max_dnns, config.stem_channels, 3, rng,
                              stride=2, padding=1)
        self.stem_bn = nn.BatchNorm2d(config.stem_channels)
        self.block1 = _ResidualBlock(config.stem_channels, c1, 2, rng,
                                     config.attn_dim)
        self.block2 = _ResidualBlock(c1, c2, 2, rng, config.attn_dim)
        self.block3 = _ResidualBlock(c2, c3, 1, rng, config.attn_dim)
        self.decoders = [
            _DecoderStream(c3, config.decoder_dim, rng)
            for _ in range(config.max_dnns)
        ]
        # float32 weights: training and inference both run in float32.
        self.astype(np.float32)

    # ------------------------------------------------------------------
    def _check_shape(self, shape: tuple[int, ...]) -> None:
        expected = (self.config.max_dnns, self.config.max_layers,
                    self.config.width)
        if shape[1:] != expected:
            raise ValueError(f"expected Q of shape (B, {expected}), got {shape}")

    def forward(self, q: Tensor) -> Tensor:
        """``q`` is (B, max_dnns, max_layers, width) -> (B, max_dnns).

        The training path; :meth:`predict_log_rates` is the inference one.
        """
        self._check_shape(q.shape)
        h = self.stem_bn(self.stem(q)).relu()
        h = self.block1(h)
        h = self.block2(h)
        h = self.block3(h)
        b, c, gh, gw = h.shape
        tokens = h.reshape(b, c, gh * gw).swapaxes(1, 2)  # (B, T, C)
        from ..autodiff import ops

        outs = [dec(tokens) for dec in self.decoders]      # each (B, 1)
        return ops.concat(outs, axis=1)                    # (B, max_dnns)

    def predict_log_rates(self, q: np.ndarray,
                          num_dnns: int | None = None) -> np.ndarray:
        """Eval-mode log1p-rates of the first ``num_dnns`` DNN slots (all by
        default) as float64 (B, num_dnns), whatever the training flag.

        The folded float32 path, within ``atol=1e-4`` of :meth:`forward`;
        every contraction is shaped per batch row, so a row's prediction
        does not depend on its batch, and only the heads asked for run.
        """
        cfg = self.config
        num_dnns = cfg.max_dnns if num_dnns is None else num_dnns
        if not 1 <= num_dnns <= cfg.max_dnns:
            raise ValueError(f"num_dnns must be in 1..{cfg.max_dnns}, "
                             f"got {num_dnns}")
        self._check_shape(q.shape)
        b = q.shape[0]
        xp, inner = _bordered((b, cfg.max_layers, cfg.width, cfg.max_dnns))
        inner[...] = q.transpose(0, 2, 3, 1)
        pre = _conv(xp, *_fold(self.stem, self.stem_bn), self.stem.stride)
        xp, inner = _bordered(pre.shape)
        np.maximum(pre, 0.0, out=inner)
        for block in (self.block1, self.block2, self.block3):
            xp = block.infer(xp)
        tokens = xp[:, 1:-1, 1:-1].reshape(b, -1, xp.shape[-1])
        out = np.empty((b, num_dnns))
        for j, decoder in enumerate(self.decoders[:num_dnns]):
            out[:, j] = decoder.infer(tokens)
        return out

    def predict_rates(self, q: np.ndarray,
                      num_dnns: int | None = None) -> np.ndarray:
        """Predicted inferences/s (inverse of the log1p target transform)."""
        return np.expm1(np.maximum(self.predict_log_rates(q, num_dnns), 0.0))
