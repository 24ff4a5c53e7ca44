"""Numpy reverse-mode autodiff engine (training substrate).

The paper trains its learned components (VQ-VAE layer encoder, multi-task
throughput estimator) with PyTorch; this package provides the equivalent
capability offline: tensors with backpropagation, the operator set those
models require, a small module system, and the Adam optimiser.  It carries
only what the estimator, the VQ-VAE and their training and fine-tuning
reach; the finite-difference gradient oracle the tests check it against
lives in ``tests/oracles/gradcheck.py``.
"""

from . import nn, ops, optim
from .tensor import Tensor, as_tensor, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "nn",
    "ops",
    "optim",
]
