"""Per-mapping Q-tensor assembly, kept as the fused assembler's oracle.

:func:`repro.mapping.qtensor.build_q_tensor_batch` is the one Q-tensor
assembler in ``src/``: inference scores candidate rosters through it and
training featurizes each dataset row through it as a batch of one.  This
module keeps the per-mapping implementation it is checked against: a
per-layer component vector, one masked scatter per component and a
row-bucket resampler, one mapping at a time.
``tests/property/test_estimator_batch_equivalence.py`` holds the fused
path to it bit for bit.  Only tests run it, so it lives under
``tests/oracles/`` and is imported as ``tests.oracles.qtensor_reference``.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.mapping import Mapping
from repro.zoo.layers import ModelSpec

__all__ = ["layer_component_vector", "scatter_layers", "build_q_tensor"]


def layer_component_vector(model: ModelSpec, assignment: tuple[int, ...]) -> np.ndarray:
    """Expand a per-block assignment to a per-layer component index array."""
    if len(assignment) != model.num_blocks:
        raise ValueError(
            f"{model.name}: {len(assignment)} assignments for "
            f"{model.num_blocks} blocks"
        )
    per_layer = np.empty(model.num_layers, dtype=np.int64)
    pos = 0
    for block, comp in zip(model.blocks, assignment):
        per_layer[pos : pos + len(block.layers)] = comp
        pos += len(block.layers)
    return per_layer


def scatter_layers(embeddings: np.ndarray, components: np.ndarray,
                   num_components: int) -> np.ndarray:
    """Place per-layer embeddings into their component's column block.

    ``embeddings`` is (layers, E); returns (layers, num_components * E).
    """
    n_layers, dim = embeddings.shape
    if components.shape != (n_layers,):
        raise ValueError("components must align with embeddings rows")
    out = np.zeros((n_layers, num_components * dim), dtype=embeddings.dtype)
    for comp in range(num_components):
        rows = components == comp
        out[rows, comp * dim : (comp + 1) * dim] = embeddings[rows]
    return out


def _resample_rows(matrix: np.ndarray, target_rows: int) -> np.ndarray:
    """Average ``matrix`` rows into ``target_rows`` contiguous buckets."""
    n = matrix.shape[0]
    if n == target_rows:
        return matrix
    out = np.zeros((target_rows, matrix.shape[1]), dtype=matrix.dtype)
    if n < target_rows:
        out[:n] = matrix
        return out
    bounds = np.linspace(0, n, target_rows + 1).astype(int)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        out[i] = matrix[lo:hi].mean(axis=0) if hi > lo else 0.0
    return out


def build_q_tensor(workload: list[ModelSpec], mapping: Mapping,
                   embeddings: list[np.ndarray], num_components: int,
                   max_dnns: int, max_layers: int) -> np.ndarray:
    """Assemble the Q tensor: (max_dnns, max_layers, num_components * E)."""
    if len(workload) > max_dnns:
        raise ValueError(f"workload of {len(workload)} exceeds max_dnns={max_dnns}")
    if len(embeddings) != len(workload):
        raise ValueError("need one embedding matrix per DNN")
    dim = embeddings[0].shape[1]
    q = np.zeros((max_dnns, max_layers, num_components * dim), dtype=np.float64)
    for i, (model, emb) in enumerate(zip(workload, embeddings)):
        if emb.shape[0] != model.num_layers:
            raise ValueError(
                f"{model.name}: embedding rows {emb.shape[0]} != layers "
                f"{model.num_layers}"
            )
        comps = layer_component_vector(model, mapping.assignments[i])
        scattered = scatter_layers(emb, comps, num_components)
        q[i] = _resample_rows(scattered, max_layers)
    return q
