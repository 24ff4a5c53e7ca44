"""Reverse-mode automatic differentiation on numpy arrays.

This module is the training substrate for the learned components of the
RankMap reproduction (the VQ-VAE layer encoder and the multi-task throughput
estimator).  The paper trains these in PyTorch; PyTorch is not available
offline, so we provide a small, well-tested tape-based autodiff engine with
exactly the operator set those models need.

The design follows the classic define-by-run pattern: every operation on
:class:`Tensor` records its parents and a closure that accumulates gradients
into them.  Calling :meth:`Tensor.backward` topologically sorts the recorded
graph and runs the closures in reverse order, consuming the graph as it
goes: once a node's closure has run, the node drops its gradient, closure
and parents, so activations are freed during the backward pass and only
leaf gradients survive it.  A second ``backward`` through a consumed node
raises ``RuntimeError``.

A Python ``int`` or ``float`` operand of ``+ - * /`` (reflected forms
included) takes the tensor's dtype, as numpy's weak-scalar rule (NEP 50)
has it, so a float32 model trains in float32; numpy scalars and arrays
promote as numpy promotes them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _consumed(grad: np.ndarray) -> None:
    """The closure of a node an earlier :meth:`Tensor.backward` consumed."""
    raise RuntimeError("backward() through a graph that an earlier "
                       "backward() already consumed")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Gradients of broadcast operands must be summed over the broadcast axes so
    that ``x.grad.shape == x.data.shape`` always holds.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Array-like payload; converted to a float numpy array.
    requires_grad:
        When True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype.kind not in "fc":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """Create a result tensor wired into the graph (if grad is enabled)."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Store by reference (cast only when dtypes differ).  Safe
            # because gradients are never mutated in place afterwards:
            # further accumulation rebinds via `+`, and the optimisers /
            # clippers also rebind rather than mutate.
            self.grad = grad if grad.dtype == self.data.dtype \
                else grad.astype(self.data.dtype)
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor, consuming its graph.

        Leaf gradients accumulate; every non-leaf node drops its gradient,
        closure and parents once its closure has run, so a second call
        through the same graph raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad only allowed for scalars")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the recorded graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        self._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue    # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _consumed, ()

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def _operand(self, other) -> "Tensor":
        """``other`` as a tensor; a Python scalar takes this tensor's dtype."""
        if isinstance(other, (int, float)) and not isinstance(other, np.generic):
            return Tensor(np.asarray(other, self.data.dtype))
        return as_tensor(other)

    def __add__(self, other):
        other = self._operand(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return self._operand(other) + (-self)

    def __mul__(self, other):
        other = self._operand(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._operand(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._operand(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def __matmul__(self, other):
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    ga = np.multiply.outer(grad, other.data)
                else:
                    ga = grad @ np.swapaxes(other.data, -1, -2)
                if self.data.ndim == 1 and ga.ndim > 1:
                    ga = ga.sum(axis=tuple(range(ga.ndim - 1)))
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    gb = np.multiply.outer(self.data, grad)
                else:
                    gb = np.swapaxes(self.data, -1, -2) @ grad
                if other.data.ndim == 1 and gb.ndim > 1:
                    gb = gb.sum(axis=tuple(range(gb.ndim - 1)))
                other._accumulate(_unbroadcast(gb, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False):
        mu = self.mean(axis=axis, keepdims=True)
        centred = self - mu
        out = (centred * centred).mean(axis=axis, keepdims=keepdims)
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        in_shape = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(in_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, idx, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self):
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no-op for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
