"""Tests for the model zoo: registry, architecture fidelity, vectorisation."""

import numpy as np
import pytest

from repro.zoo import (
    ALL_MODELS,
    LAYER_VECTOR_DIM,
    MODEL_POOL,
    get_model,
    pool_models,
    vectorize_layer,
    vectorize_model,
)
from repro.zoo.layers import LayerType

# Published MAC counts (multiply-accumulates, in G) for single-image
# inference; our reconstructions must land within a factor of ~1.6.
PUBLISHED_GMACS = {
    "alexnet": 0.72,
    "vgg16": 15.5,
    "vgg19": 19.6,
    "resnet50": 4.1,
    "resnext50": 4.3,
    "densenet121": 2.87,
    "densenet169": 3.4,
    "googlenet": 1.5,
    "inception_v3": 5.7,
    "inception_v4": 12.3,
    "mobilenet": 0.57,
    "mobilenet_v2": 0.3,
    "shufflenet": 0.14,
    "squeezenet": 0.84,
    "squeezenet_v2": 0.35,
    "efficientnet_b0": 0.39,
    "efficientnet_b1": 0.7,
    "efficientnet_b2": 1.0,
    "yolo_v3": 32.8,
}


class TestRegistry:
    def test_pool_has_23_models(self):
        assert len(MODEL_POOL) == 23

    def test_fig8_model_available_but_not_in_pool(self):
        assert "inception_resnet_v1" in ALL_MODELS
        assert "inception_resnet_v1" not in MODEL_POOL

    def test_unknown_model_raises_with_hint(self):
        with pytest.raises(KeyError, match="available"):
            get_model("resnet101")

    def test_get_model_is_memoised(self):
        assert get_model("alexnet") is get_model("alexnet")

    def test_pool_models_builds_all(self):
        assert len(pool_models()) == 23


@pytest.mark.parametrize("name", ALL_MODELS)
class TestEveryModel:
    def test_builds_with_blocks_and_layers(self, name):
        m = get_model(name)
        assert m.num_blocks >= 2
        assert m.num_layers >= m.num_blocks
        assert m.macs > 0
        assert m.params > 0

    def test_first_layer_consumes_model_input(self, name):
        m = get_model(name)
        assert m.layers()[0].ifm == m.input_shape

    def test_layer_indices_strictly_increasing(self, name):
        indices = [l.index for l in get_model(name).layers()]
        assert indices == list(range(len(indices)))

    def test_vectorises_to_eq1_dims(self, name):
        mat = vectorize_model(get_model(name))
        assert mat.shape == (get_model(name).num_layers, LAYER_VECTOR_DIM)
        assert np.isfinite(mat).all()


class TestPaperPartitionCounts:
    """Sec. IV-E quotes the solution-space size 3^(8+20+18+18) for the
    workload {AlexNet, MobileNet, ResNet-50, ShuffleNet}."""

    @pytest.mark.parametrize("name,blocks", [
        ("alexnet", 8), ("mobilenet", 20), ("resnet50", 18), ("shufflenet", 18),
    ])
    def test_block_counts_match_paper(self, name, blocks):
        assert get_model(name).num_blocks == blocks

    def test_solution_space_size_example(self):
        total = sum(get_model(n).num_blocks
                    for n in ("alexnet", "mobilenet", "resnet50", "shufflenet"))
        assert total == 8 + 20 + 18 + 18


class TestArchitectureFidelity:
    @pytest.mark.parametrize("name,published", sorted(PUBLISHED_GMACS.items()))
    def test_macs_close_to_published(self, name, published):
        ours = get_model(name).macs / 1e9
        assert published / 1.6 <= ours <= published * 1.6, (
            f"{name}: {ours:.2f}G vs published {published}G"
        )

    def test_inception_v4_is_heaviest_classifier(self):
        heavy = get_model("inception_v4").macs
        for other in ("resnet50", "googlenet", "mobilenet", "squeezenet_v2"):
            assert heavy > get_model(other).macs

    def test_squeezenet_v2_cheaper_than_v1(self):
        assert get_model("squeezenet_v2").macs < get_model("squeezenet").macs

    def test_vgg19_deeper_and_heavier_than_vgg16(self):
        assert get_model("vgg19").macs > get_model("vgg16").macs
        assert get_model("vgg19").num_blocks > get_model("vgg16").num_blocks

    def test_efficientnet_scaling_monotone(self):
        b0, b1, b2 = (get_model(f"efficientnet_b{i}").macs for i in range(3))
        assert b0 < b1 < b2

    def test_resnext_uses_grouped_convs(self):
        types = {l.op_type for l in get_model("resnext50").layers()}
        assert LayerType.GROUP_CONV in types

    def test_shufflenet_has_shuffle_layers(self):
        types = {l.op_type for l in get_model("shufflenet").layers()}
        assert LayerType.CHANNEL_SHUFFLE in types

    def test_detection_models_have_heads(self):
        for name in ("ssd_mobilenet", "yolo_v3"):
            heads = [l for l in get_model(name).layers()
                     if l.op_type == LayerType.DETECT_HEAD]
            assert len(heads) >= 3, name

    def test_yolo_has_upsampling_routes(self):
        types = [l.op_type for l in get_model("yolo_v3").layers()]
        assert types.count(LayerType.UPSAMPLE) == 2

    def test_densenet_grows_channels_via_concat(self):
        m = get_model("densenet121")
        concats = [l for l in m.layers() if l.op_type == LayerType.CONCAT]
        assert len(concats) == 6 + 12 + 24 + 16


class TestVectorize:
    def test_raw_vector_fields(self):
        layer = get_model("alexnet").layers()[0]
        vec = vectorize_layer(layer)
        assert vec[0] == layer.index
        assert vec[1] == layer.op_type
        assert tuple(vec[3:6]) == layer.ifm
        assert tuple(vec[7:10]) == layer.ofm
        assert vec[14] == layer.biases
        assert vec[15] == layer.activation
        assert vec[20] == layer.stride[0]

    def test_minibatch_fields_are_one(self):
        vec = vectorize_layer(get_model("alexnet").layers()[0])
        assert vec[2] == 1.0 and vec[6] == 1.0

    def test_normalised_magnitudes_order_one(self):
        mat = vectorize_model(get_model("vgg16"))
        assert np.abs(mat).max() < 5.0

    def test_normalisation_is_deterministic(self):
        a = vectorize_model(get_model("resnet50"))
        b = vectorize_model(get_model("resnet50"))
        np.testing.assert_array_equal(a, b)

    def test_distinct_models_have_distinct_encodings(self):
        a = vectorize_model(get_model("squeezenet"))
        b = vectorize_model(get_model("squeezenet_v2"))
        assert a.shape != b.shape or not np.allclose(a, b)
