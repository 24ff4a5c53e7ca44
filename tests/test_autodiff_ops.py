"""Unit tests for structured ops: convolutions, softmax, padding, etc."""

import numpy as np
import pytest

from repro.autodiff import Tensor, ops
from tests.oracles.gradcheck import check_gradients


def rng():
    return np.random.default_rng(7)


class TestJoin:
    def test_concat_forward_backward(self):
        g = rng()
        a = Tensor(g.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(2, 2)), requires_grad=True)
        out = ops.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        check_gradients(lambda: ops.concat([a, b], axis=1).sum(), [a, b])

class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(rng().normal(size=(4, 6)))
        s = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), rtol=1e-10)

    def test_softmax_gradcheck(self):
        x = Tensor(rng().normal(size=(2, 5)), requires_grad=True)
        w = Tensor(rng().normal(size=(2, 5)))
        check_gradients(lambda: (ops.softmax(x, axis=-1) * w).sum(), [x], rtol=1e-3)

    def test_softmax_stability_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        s = ops.softmax(x)
        np.testing.assert_allclose(s.data, [[0.5, 0.5]])


class TestConv2d:
    def test_forward_matches_naive(self):
        g = rng()
        x = Tensor(g.normal(size=(1, 2, 5, 5)))
        w = Tensor(g.normal(size=(3, 2, 3, 3)))
        out = ops.conv2d(x, w, stride=1, padding=0)
        # Naive reference
        ref = np.zeros((1, 3, 3, 3))
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    ref[0, f, i, j] = (x.data[0, :, i : i + 3, j : j + 3] * w.data[f]).sum()
        np.testing.assert_allclose(out.data, ref, rtol=1e-10)

    def test_padding_and_stride_shapes(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        out = ops.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)

    def test_gradcheck(self):
        g = rng()
        x = Tensor(g.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(g.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda: ops.conv2d(x, w, b, stride=2, padding=1).sum(), [x, w, b], rtol=1e-3
        )

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 5, 3, 3)))
        with pytest.raises(ValueError):
            ops.conv2d(x, w)


class TestDepthwiseConv2d:
    def test_channels_stay_independent(self):
        g = rng()
        x = np.zeros((1, 2, 5, 5))
        x[0, 0] = g.normal(size=(5, 5))  # only channel 0 carries signal
        w = Tensor(np.ones((2, 3, 3)))
        out = ops.depthwise_conv2d(Tensor(x), w, padding=1)
        assert np.abs(out.data[0, 1]).max() == 0.0
        assert np.abs(out.data[0, 0]).max() > 0.0

    def test_gradcheck(self):
        g = rng()
        x = Tensor(g.normal(size=(2, 3, 5, 5)), requires_grad=True)
        w = Tensor(g.normal(size=(3, 3, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda: ops.depthwise_conv2d(x, w, b, stride=1, padding=1).sum(),
            [x, w, b],
            rtol=1e-3,
        )

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.depthwise_conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 3, 3))))


class TestConv1d:
    def test_forward_matches_naive(self):
        g = rng()
        x = Tensor(g.normal(size=(1, 2, 7)))
        w = Tensor(g.normal(size=(3, 2, 3)))
        out = ops.conv1d(x, w)
        ref = np.zeros((1, 3, 5))
        for f in range(3):
            for i in range(5):
                ref[0, f, i] = (x.data[0, :, i : i + 3] * w.data[f]).sum()
        np.testing.assert_allclose(out.data, ref, rtol=1e-10)

    def test_gradcheck(self):
        g = rng()
        x = Tensor(g.normal(size=(2, 2, 6)), requires_grad=True)
        w = Tensor(g.normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: ops.conv1d(x, w, b, padding=1).sum(), [x, w, b], rtol=1e-3)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((3, 4, 3))))


class TestMisc:
    def test_straight_through_forwards_quantized(self):
        q = Tensor([1.0, 2.0])
        c = Tensor([0.5, 0.7], requires_grad=True)
        out = ops.straight_through(q, c)
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_straight_through_grad_to_continuous(self):
        q = Tensor([1.0, 2.0])
        c = Tensor([0.5, 0.7], requires_grad=True)
        (ops.straight_through(q, c) * 3.0).sum().backward()
        np.testing.assert_allclose(c.grad, [3.0, 3.0])

    def test_pad2d_and_grad(self):
        x = Tensor(rng().normal(size=(1, 1, 3, 3)), requires_grad=True)
        out = ops.pad2d(x, (1, 2))
        assert out.shape == (1, 1, 5, 7)
        check_gradients(lambda: ops.pad2d(x, (1, 2)).sum(), [x])

    def test_pad2d_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        assert ops.pad2d(x, (0, 0)) is x
