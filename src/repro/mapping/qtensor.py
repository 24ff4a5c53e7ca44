"""Mapping tensor Q assembly (Sec. IV-A).

Q has one channel per DNN; each row is a layer; the row is divided into
``d`` column blocks, one per computing component, and the layer's embedding
is written into the column block of the component its block is mapped to.
The throughput estimator consumes Q as an image-like tensor.

Models longer than ``max_layers`` are bucket-averaged row-wise (the scatter
into component column blocks happens first, so placement information is
preserved proportionally).

:func:`build_q_tensor_batch` is the one assembler: inference scores
candidate rosters through it, and training featurizes each dataset row
as a batch of one.  The per-mapping assembly it is checked against lives
in ``tests/oracles/qtensor_reference.py``.
"""

from __future__ import annotations

import numpy as np

from ..zoo.layers import ModelSpec
from .mapping import Mapping

__all__ = ["build_q_tensor_batch"]


def _resample_rows_batch(matrix: np.ndarray, target_rows: int) -> np.ndarray:
    """Average the rows of ``matrix`` (B, n, W) into ``target_rows``
    contiguous buckets, or zero-pad them up to it.

    Bit-identical to the oracle's per-mapping ``_resample_rows`` on each
    batch element: the bucket means reduce over the same row slices in
    the same order, only batched over the leading axis.  An edit to the
    bucketing must land in both (the property suite fails loudly if they
    drift).
    """
    b, n, width = matrix.shape
    if n == target_rows:
        return matrix
    out = np.zeros((b, target_rows, width), dtype=matrix.dtype)
    if n < target_rows:
        out[:, :n] = matrix
        return out
    bounds = np.linspace(0, n, target_rows + 1).astype(int)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        out[:, i] = matrix[:, lo:hi].mean(axis=1) if hi > lo else 0.0
    return out


def build_q_tensor_batch(workload: list[ModelSpec], mappings: list[Mapping],
                         embeddings: list[np.ndarray], num_components: int,
                         max_dnns: int, max_layers: int) -> np.ndarray:
    """Assemble Q tensors for a whole candidate batch in one fused pass.

    Returns (B, max_dnns, max_layers, num_components * E), bit-identical
    to stacking the per-mapping oracle assemblies of
    ``tests/oracles/qtensor_reference.py`` (locked by
    ``tests/property/test_estimator_batch_equivalence.py``) but without
    the per-mapping Python work: the per-layer component expansion
    and the embedding scatter vectorize across the batch, and the
    row-bucket resampling loops over buckets once instead of once per
    mapping.  This is the estimator-path analogue of
    :func:`repro.sim.engine.simulate_batch` — MCTS rollout sets and
    warm-start candidate rosters assemble their features here.
    """
    if len(workload) > max_dnns:
        raise ValueError(
            f"workload of {len(workload)} exceeds max_dnns={max_dnns}")
    if len(embeddings) != len(workload):
        raise ValueError("need one embedding matrix per DNN")
    if not mappings:
        dim = embeddings[0].shape[1] if embeddings else 0
        return np.zeros((0, max_dnns, max_layers, num_components * dim),
                        dtype=np.float64)
    batch = len(mappings)
    dim = embeddings[0].shape[1]
    q = np.zeros((batch, max_dnns, max_layers, num_components * dim),
                 dtype=np.float64)
    batch_index = np.arange(batch)[:, None]
    for i, (model, emb) in enumerate(zip(workload, embeddings)):
        if emb.shape[0] != model.num_layers:
            raise ValueError(
                f"{model.name}: embedding rows {emb.shape[0]} != layers "
                f"{model.num_layers}"
            )
        for m in mappings:
            if len(m.assignments[i]) != model.num_blocks:
                raise ValueError(
                    f"{model.name}: {len(m.assignments[i])} assignments "
                    f"for {model.num_blocks} blocks"
                )
        # (B, blocks) per-block assignments -> (B, layers) via the shared
        # block-of-layer expansion (the oracle's layer_component_vector,
        # batched).
        assignments = np.array([m.assignments[i] for m in mappings],
                               dtype=np.int64)
        if assignments.size and (assignments.min() < 0
                                 or assignments.max() >= num_components):
            # The scalar reference silently zero-drops an out-of-range
            # component; here it would wrap (negative) or crash with an
            # opaque IndexError deep in the scatter — fail clearly
            # instead, it is a caller bug either way.
            raise ValueError(
                f"{model.name}: component indices must be in "
                f"[0, {num_components}); got "
                f"[{assignments.min()}, {assignments.max()}]")
        block_of_layer = np.repeat(np.arange(model.num_blocks),
                                   [len(b.layers) for b in model.blocks])
        per_layer = assignments[:, block_of_layer]
        # The oracle's scatter_layers, batched: place each layer's
        # embedding into the column block of its assigned component via
        # one fancy-indexed write per model instead of num_components
        # masked writes per mapping.
        scattered = np.zeros((batch, model.num_layers, num_components, dim),
                             dtype=emb.dtype)
        scattered[batch_index, np.arange(model.num_layers)[None, :],
                  per_layer] = emb[None, :, :]
        scattered = scattered.reshape(batch, model.num_layers,
                                      num_components * dim)
        q[:, i] = _resample_rows_batch(scattered, max_layers)
    return q
