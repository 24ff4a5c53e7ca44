"""Property-based tests (hypothesis) for the autodiff engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autodiff import Tensor, ops
from tests.oracles.gradcheck import check_gradients

FLOATS = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False,
                   width=64)


def small_arrays(max_dims=3, max_side=4):
    return arrays(np.float64, array_shapes(min_dims=1, max_dims=max_dims,
                                           min_side=1, max_side=max_side),
                  elements=FLOATS)


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_add_gradient_is_ones(data):
    x = Tensor(data, requires_grad=True)
    (x + x).sum().backward()
    np.testing.assert_allclose(x.grad, np.full(data.shape, 2.0))


@settings(max_examples=30, deadline=None)
@given(small_arrays())
def test_sum_then_backward_shape_matches(data):
    x = Tensor(data, requires_grad=True)
    x.sum().backward()
    assert x.grad.shape == data.shape


@settings(max_examples=25, deadline=None)
@given(small_arrays(max_dims=2))
def test_softmax_is_probability_distribution(data):
    s = ops.softmax(Tensor(data), axis=-1).data
    assert np.all(s >= 0)
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(s.shape[:-1]), rtol=1e-8)

    # Softmax is invariant to a constant shift.
    s2 = ops.softmax(Tensor(data + 7.3), axis=-1).data
    np.testing.assert_allclose(s, s2, rtol=1e-8, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(small_arrays(max_dims=2, max_side=4))
def test_gradcheck_composite_expression(data):
    x = Tensor(data, requires_grad=True)
    check_gradients(lambda: ((x * x + 1.0) ** 0.5 + x * x * x).sum(), [x],
                    rtol=1e-3, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)), elements=FLOATS),
    arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)), elements=FLOATS),
)
def test_matmul_matches_numpy(a, b):
    if a.shape[1] != b.shape[0]:
        b = np.resize(b, (a.shape[1], b.shape[1]))
    out = Tensor(a) @ Tensor(b)
    np.testing.assert_allclose(out.data, a @ b, rtol=1e-10, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 2),  # batch
    st.integers(1, 3),  # channels
    st.integers(3, 6),  # spatial
    st.integers(1, 3),  # filters
)
def test_conv2d_linear_in_input(n, c, hw, f):
    """conv(x1 + x2) == conv(x1) + conv(x2): convolution is linear."""
    g = np.random.default_rng(42)
    x1 = g.normal(size=(n, c, hw, hw))
    x2 = g.normal(size=(n, c, hw, hw))
    w = Tensor(g.normal(size=(f, c, 3, 3)))
    lhs = ops.conv2d(Tensor(x1 + x2), w, padding=1).data
    rhs = ops.conv2d(Tensor(x1), w, padding=1).data + ops.conv2d(Tensor(x2), w, padding=1).data
    np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(small_arrays(max_dims=2))
def test_relu_idempotent(data):
    x = Tensor(data)
    once = x.relu().data
    twice = Tensor(once).relu().data
    np.testing.assert_allclose(once, twice)


@settings(max_examples=20, deadline=None)
@given(small_arrays(max_dims=2))
def test_straight_through_gradient_identity(data):
    c = Tensor(data, requires_grad=True)
    q = Tensor(np.round(data))
    out = ops.straight_through(q, c)
    out.sum().backward()
    np.testing.assert_allclose(c.grad, np.ones(data.shape))
    np.testing.assert_allclose(out.data, np.round(data))
