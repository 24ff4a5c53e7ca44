"""Unit tests for Q-tensor assembly: the fused assembler in ``src/`` on one
mapping, and the helpers of the per-mapping oracle it is checked against."""

import numpy as np
import pytest

from repro.mapping import Mapping, build_q_tensor_batch, gpu_only_mapping
from repro.zoo import get_model
from tests.oracles.qtensor_reference import (
    layer_component_vector,
    scatter_layers,
)


def assemble_one(workload, mapping, *args, **kwargs):
    """The fused assembler on a batch of one mapping."""
    return build_q_tensor_batch(workload, [mapping], *args, **kwargs)[0]


class TestLayerComponentVector:
    def test_expands_blocks_to_layers(self):
        m = get_model("alexnet")
        assignment = tuple([1] * m.num_blocks)
        vec = layer_component_vector(m, assignment)
        assert vec.shape == (m.num_layers,)
        assert (vec == 1).all()

    def test_block_boundaries_respected(self):
        m = get_model("alexnet")
        assignment = tuple(
            0 if i < 4 else 2 for i in range(m.num_blocks)
        )
        vec = layer_component_vector(m, assignment)
        first_layers = sum(len(b.layers) for b in m.blocks[:4])
        assert (vec[:first_layers] == 0).all()
        assert (vec[first_layers:] == 2).all()

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            layer_component_vector(get_model("alexnet"), (0, 0))


class TestScatter:
    def test_scatter_places_by_component(self):
        emb = np.arange(6.0).reshape(3, 2)
        comps = np.array([0, 2, 1])
        out = scatter_layers(emb, comps, 3)
        assert out.shape == (3, 6)
        np.testing.assert_array_equal(out[0, 0:2], emb[0])
        np.testing.assert_array_equal(out[1, 4:6], emb[1])
        np.testing.assert_array_equal(out[2, 2:4], emb[2])
        # Everything else is zero.
        assert out.sum() == emb.sum()

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            scatter_layers(np.zeros((3, 2)), np.zeros(4, dtype=int), 3)


class TestBuildQ:
    def _embeddings(self, workload, dim=4):
        return [np.ones((m.num_layers, dim)) for m in workload]

    def test_shape(self):
        wl = [get_model("alexnet"), get_model("squeezenet_v2")]
        q = assemble_one(wl, gpu_only_mapping(wl), self._embeddings(wl),
                         num_components=3, max_dnns=5, max_layers=64)
        assert q.shape == (5, 64, 12)

    def test_unused_channels_zero(self):
        wl = [get_model("alexnet")]
        q = assemble_one(wl, gpu_only_mapping(wl), self._embeddings(wl),
                         3, max_dnns=5, max_layers=64)
        assert np.abs(q[1:]).max() == 0.0

    def test_component_column_blocks(self):
        wl = [get_model("alexnet")]
        m = Mapping((tuple([2] * wl[0].num_blocks),))
        q = assemble_one(wl, m, self._embeddings(wl, dim=4), 3,
                         max_dnns=2, max_layers=32)
        # All mass must be in the third column block.
        assert np.abs(q[0, :, :8]).max() == 0.0
        assert np.abs(q[0, :, 8:]).sum() > 0

    def test_long_model_resampled(self):
        wl = [get_model("densenet169")]  # 256 layers
        q = assemble_one(wl, gpu_only_mapping(wl), self._embeddings(wl),
                         3, max_dnns=1, max_layers=64)
        assert q.shape[1] == 64
        # Bucket-averaging preserves total mass approximately.
        assert q.sum() > 0

    def test_short_model_padded(self):
        wl = [get_model("alexnet")]  # 13 layers
        q = assemble_one(wl, gpu_only_mapping(wl), self._embeddings(wl),
                         3, max_dnns=1, max_layers=64)
        assert np.abs(q[0, 13:]).max() == 0.0

    def test_too_many_dnns_rejected(self):
        wl = [get_model("alexnet")] * 3
        with pytest.raises(ValueError):
            assemble_one(wl, gpu_only_mapping(wl), self._embeddings(wl),
                         3, max_dnns=2, max_layers=16)

    def test_mismatched_embeddings_rejected(self):
        wl = [get_model("alexnet")]
        with pytest.raises(ValueError):
            assemble_one(wl, gpu_only_mapping(wl),
                         [np.ones((5, 4))], 3, max_dnns=1, max_layers=16)

    def test_placement_changes_tensor(self):
        wl = [get_model("alexnet")]
        emb = self._embeddings(wl)
        q_gpu = assemble_one(wl, gpu_only_mapping(wl), emb, 3, 1, 32)
        q_big = assemble_one(
            wl, Mapping((tuple([1] * wl[0].num_blocks),)), emb, 3, 1, 32
        )
        assert not np.allclose(q_gpu, q_big)
