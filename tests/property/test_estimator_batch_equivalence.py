"""Property tests: fused estimator-path batching is equivalent to the
scalar reference over arbitrary workloads and mapping batches.

The learned-path analogue of ``test_solver_equivalence.py``: the fast path
(:func:`repro.mapping.build_q_tensor_batch` feeding
:meth:`EstimatorPredictor.predict_batch`) must *bit*-match per-mapping
Q-tensor assembly (the oracle in ``tests/oracles/qtensor_reference.py``)
— same scatter, same bucket means, same float32 cast —
so a batched candidate roster scores exactly as the stacked scalar
assemblies would.  The inference forward shapes every contraction per
batch row, so a mapping's scores are also bit-identical whatever roster
it is scored in: batched, looped one by one, or split into chunks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EstimatorPredictor
from repro.estimator import EstimatorConfig, ThroughputEstimator
from repro.mapping import (
    build_q_tensor_batch,
    random_partition_mapping,
    uniform_block_mapping,
)
from repro.vqvae import EmbeddingCache, LayerVQVAE
from repro.zoo import get_model
from tests.oracles.qtensor_reference import build_q_tensor

#: Mixes short models, a >96-layer model (bucket averaging) and a
#: <96-layer model (zero padding), so resampling hits all three regimes.
SMALL_POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet50",
              "densenet121")

SMALL_CFG = EstimatorConfig(max_dnns=5, max_layers=48, stem_channels=8,
                            block_channels=(8, 12, 16), attn_dim=8,
                            decoder_dim=12)

_EMBEDDER = EmbeddingCache(LayerVQVAE(np.random.default_rng(0)))
_ESTIMATOR = ThroughputEstimator(np.random.default_rng(1), SMALL_CFG)
_PREDICTOR = EstimatorPredictor(_ESTIMATOR, _EMBEDDER)


def workload_strategy():
    return st.lists(st.sampled_from(SMALL_POOL), min_size=1, max_size=4,
                    unique=True)


def _mapping_batch(workload, num_components, seed, size):
    """Half coherent partition mappings, half fragmented uniform ones."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(size):
        maker = (random_partition_mapping if i % 2 == 0
                 else uniform_block_mapping)
        out.append(maker(workload, num_components, rng))
    return out


@settings(max_examples=20, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1), st.integers(1, 8),
       st.sampled_from([16, 48, 200]))
def test_q_batch_matches_scalar(names, seed, batch_size, max_layers):
    """Fused Q assembly == stacked scalar assemblies, bit for bit, across
    the padding (n < max_layers) and bucket-averaging (n > max_layers)
    regimes — at ``max_layers=16`` every pool model buckets, at 200 every
    model pads, at 48 the batch mixes both."""
    workload = [get_model(n) for n in names]
    mappings = _mapping_batch(workload, 3, seed, batch_size)
    embeddings = _EMBEDDER.for_workload(workload)
    batch = build_q_tensor_batch(workload, mappings, embeddings, 3, 5,
                                 max_layers)
    scalar = np.stack([
        build_q_tensor(workload, m, embeddings, 3, 5, max_layers)
        for m in mappings
    ])
    np.testing.assert_array_equal(batch, scalar)


@settings(max_examples=10, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1), st.integers(1, 8))
def test_predict_batch_matches_scalar_assembly(names, seed, batch_size):
    """``predict_batch`` == the scalar-assembly reference (per-mapping
    ``build_q_tensor``, stacked, one shared forward pass), bit for bit —
    the contract the acceptance criterion names."""
    workload = [get_model(n) for n in names]
    mappings = _mapping_batch(workload, 3, seed, batch_size)
    got = _PREDICTOR.predict_batch(workload, mappings)
    embeddings = _EMBEDDER.for_workload(workload)
    q = np.stack([
        build_q_tensor(workload, m, embeddings, SMALL_CFG.num_components,
                       SMALL_CFG.max_dnns, SMALL_CFG.max_layers)
        for m in mappings
    ]).astype(np.float32)
    want = _ESTIMATOR.predict_rates(q)[:, : len(workload)]
    np.testing.assert_array_equal(got, want)


@settings(max_examples=8, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_predict_batch_close_to_looped_predict(names, seed):
    """Scoring the roster in one batch equals per-mapping ``predict``
    calls bit for bit: no contraction of the inference forward spans
    batch rows."""
    workload = [get_model(n) for n in names]
    mappings = _mapping_batch(workload, 3, seed, 6)
    batched = _PREDICTOR.predict_batch(workload, mappings)
    looped = np.concatenate(
        [_PREDICTOR.predict(workload, [m]) for m in mappings])
    np.testing.assert_array_equal(batched, looped)


@settings(max_examples=8, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_batch_shape_divergence_pinned(names, seed):
    """The *same* mapping scored inside rosters of different sizes gets
    the same scores, bit for bit: every GEMM of the inference forward is
    one call per batch row (the decoder FC layers included, as (B, 1, d)),
    so BLAS never blocks the batch dimension."""
    workload = [get_model(n) for n in names]
    mappings = _mapping_batch(workload, 3, seed, 6)
    full = _PREDICTOR.predict_batch(workload, mappings)
    for step in (1, 2, 3):
        split = np.concatenate([
            _PREDICTOR.predict_batch(workload, mappings[i:i + step])
            for i in range(0, len(mappings), step)
        ])
        np.testing.assert_array_equal(split, full)


def test_empty_and_oversized_batches():
    workload = [get_model("alexnet")]
    empty = _PREDICTOR.predict_batch(workload, [])
    assert empty.shape == (0, 1)
    one = _PREDICTOR.predict_batch(
        workload, _mapping_batch(workload, 3, 0, 1))
    assert empty.dtype == one.dtype == np.float64
    big = [get_model(n) for n in SMALL_POOL] + [get_model("vgg16")]
    with pytest.raises(ValueError, match="exceeds estimator capacity"):
        _PREDICTOR.predict_batch(big, [])


def test_out_of_range_component_rejected_clearly():
    """Divergence from the scalar reference, by design: an out-of-range
    component index (a caller bug) raises a clear ValueError here instead
    of the scalar path's silent zero-drop / an opaque IndexError."""
    from repro.mapping import Mapping

    model = get_model("alexnet")
    bad = Mapping((tuple(5 for _ in range(model.num_blocks)),))
    with pytest.raises(ValueError, match="component indices must be in"):
        build_q_tensor_batch([model], [bad], _EMBEDDER.for_workload([model]),
                             3, 5, 48)
