"""Unit tests for the core Tensor autodiff machinery."""

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from tests.oracles.gradcheck import check_gradients


def rng():
    return np.random.default_rng(0)


class TestBasics:
    def test_scalar_add_backward(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(3.0, requires_grad=True)
        (a + b).backward()
        assert a.grad == 1.0
        assert b.grad == 1.0

    def test_mul_backward(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(3.0, requires_grad=True)
        (a * b).backward()
        assert a.grad == 3.0
        assert b.grad == 2.0

    def test_chain_rule(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x + x) * 3.0  # y = 3x^2 + 3x, dy/dx = 6x + 3 = 15
        y.backward()
        assert x.grad == pytest.approx(15.0)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x  # dy/dx = 2x via two paths
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(1.0)
        with pytest.raises(RuntimeError):
            x.backward()

    def test_no_grad_context(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = x * 3
        assert not y.requires_grad

    def test_repr_and_props(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert "requires_grad" in repr(x)
        assert x.shape == (2, 3)
        assert x.ndim == 2
        assert x.size == 6
        assert len(x) == 2

    def test_int_input_promoted_to_float(self):
        x = Tensor([1, 2, 3])
        assert x.dtype.kind == "f"


class TestBroadcasting:
    def test_add_broadcast_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_broadcast_scalar(self):
        a = Tensor(np.full((4,), 2.0), requires_grad=True)
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 3.0))

    def test_keepdims_broadcast(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        mu = a.mean(axis=1, keepdims=True)
        (a - mu).sum().backward()
        np.testing.assert_allclose(a.grad, np.zeros((2, 3)), atol=1e-12)


class TestReductionsAndShapes:
    def test_sum_axis(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        a.sum(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3, 4)))

    def test_mean_grad_value(self):
        a = Tensor(np.ones((5,)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(5, 0.2))

    def test_var_matches_numpy(self):
        data = rng().normal(size=(4, 5))
        t = Tensor(data)
        np.testing.assert_allclose(t.var(axis=1).data, data.var(axis=1), rtol=1e-10)

    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(12.0), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (12,)

    def test_transpose_grad(self):
        a = Tensor(rng().normal(size=(2, 3, 4)), requires_grad=True)
        (a.transpose(2, 0, 1) * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 2.0))

    def test_getitem_grad(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_swapaxes(self):
        a = Tensor(np.zeros((2, 3)))
        assert a.swapaxes(0, 1).shape == (3, 2)


class TestMatmul:
    def test_2d_matmul_grads(self):
        g = rng()
        a = Tensor(g.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(g.normal(size=(4, 5)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_batched_matmul_grads(self):
        g = rng()
        a = Tensor(g.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(g.normal(size=(2, 4, 5)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_batched_times_2d(self):
        g = rng()
        a = Tensor(g.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(g.normal(size=(4, 5)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_vector_matmul(self):
        g = rng()
        a = Tensor(g.normal(size=(4,)), requires_grad=True)
        b = Tensor(g.normal(size=(4, 5)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_vector_rhs(self):
        g = rng()
        a = Tensor(g.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(g.normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: (a @ b).sum(), [a, b])


class TestElementwise:
    @pytest.mark.parametrize("name", ["relu"])
    def test_unary_gradcheck(self, name):
        g = rng()
        data = g.uniform(0.2, 2.0, size=(3, 4))  # away from the kink at 0
        x = Tensor(data, requires_grad=True)
        check_gradients(lambda: getattr(x, name)().sum(), [x], rtol=1e-3, atol=1e-5)

    def test_pow_gradcheck(self):
        x = Tensor(rng().uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        check_gradients(lambda: (x**3).sum(), [x])

    def test_pow_rejects_tensor_exponent(self):
        x = Tensor([1.0])
        with pytest.raises(TypeError):
            x ** np.array([1.0, 2.0])

    def test_div_gradcheck(self):
        g = rng()
        a = Tensor(g.uniform(1, 2, size=(3,)), requires_grad=True)
        b = Tensor(g.uniform(1, 2, size=(3,)), requires_grad=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_rsub_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        y = 1.0 - x
        z = 1.0 / x
        assert y.data[0] == pytest.approx(-1.0)
        assert z.data[0] == pytest.approx(0.5)
