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


class TestScalarDtype:
    """A Python scalar operand takes the tensor's dtype (numpy's NEP 50
    weak-scalar rule); arrays and numpy scalars promote as numpy does."""

    EXPRESSIONS = {
        "t * 0.5": lambda t: t * 0.5,
        "t + 1e-5": lambda t: t + 1e-5,
        "t.mean()": lambda t: t.mean(),
        "1.0 - t": lambda t: 1.0 - t,
        "2.0 / t": lambda t: 2.0 / t,
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("expr", sorted(EXPRESSIONS))
    def test_scalar_keeps_dtype(self, expr, dtype):
        t = Tensor(np.array([1.0, 2.0, 4.0], dtype), requires_grad=True)
        out = self.EXPRESSIONS[expr](t)
        assert out.dtype == dtype
        out.sum().backward()
        assert t.grad.dtype == dtype

    def test_arrays_and_numpy_scalars_promote(self):
        t = Tensor(np.ones(3, np.float32))
        assert (t + np.ones(3)).dtype == np.float64
        assert (t * np.float64(0.5)).dtype == np.float64
        assert (t * np.float32(0.5)).dtype == np.float32


class TestReleasedGraph:
    """``backward`` consumes the graph: only leaf gradients survive it."""

    def _net(self):
        g = rng()
        x = Tensor(g.normal(size=(4, 3)))
        w1 = Tensor(g.normal(size=(3, 5)), requires_grad=True)
        w2 = Tensor(g.normal(size=(5, 2)), requires_grad=True)

        def loss():
            h = (x @ w1).relu()
            return ((h @ w2) * (h @ w2)).mean() + (h * 0.5).sum()

        return loss, [w1, w2]

    def test_leaf_grads_pass_gradcheck(self):
        loss, leaves = self._net()
        check_gradients(loss, leaves)

    def test_intermediate_activation_is_freed(self):
        import weakref

        x = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        hidden = (x * 2.0).relu()
        activation = weakref.ref(hidden.data)
        out = (hidden * hidden).sum()
        del hidden
        assert activation() is not None    # the tape holds it
        out.backward()
        assert activation() is None
        assert x.grad is not None and out.grad is None

    def test_second_backward_raises(self):
        loss, leaves = self._net()
        out = loss()
        out.backward()
        grads = [w.grad.copy() for w in leaves]
        with pytest.raises(RuntimeError, match="consumed"):
            out.backward()
        for w, grad in zip(leaves, grads):
            np.testing.assert_array_equal(w.grad, grad)

    def test_new_graph_on_a_consumed_node_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = x * 3.0
        hidden.sum().backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (hidden * 2.0).sum().backward()
