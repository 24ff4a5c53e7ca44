"""Unit tests for the hardware component / latency / platform model."""

import pytest

from repro.hw import (
    BIG,
    GPU,
    LITTLE,
    ComputeComponent,
    Platform,
    TransferLink,
    block_latency,
    default_efficiency,
    layer_latency,
    model_latency,
    orange_pi_5,
    solo_throughput,
)
from repro.zoo import get_model
from repro.zoo.layers import Activation, LayerSpec, LayerType


def make_component(**overrides) -> ComputeComponent:
    base = dict(
        name="test", kind="gpu", peak_macs_per_s=100e9,
        mem_bw_bytes_per_s=10e9, elem_ops_per_s=10e9,
        dispatch_overhead_s=1e-4,
        type_efficiency=default_efficiency(0.5, 0.3, 0.4),
        macs_half=1e6, channel_sat=16, sharing_bias=0.5,
        interference_alpha=0.5, interference_beta=1.0,
    )
    base.update(overrides)
    return ComputeComponent(**base)


def big_conv(macs_scale=1):
    c = 64 * macs_scale
    return LayerSpec(0, LayerType.CONV, (c, 32, 32), (c, 32, 32),
                     (c, c, 3, 3), c, Activation.RELU, (1, 1), (1, 1))


class TestComponent:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            make_component(peak_macs_per_s=0)

    def test_rejects_bad_sharing_bias(self):
        with pytest.raises(ValueError):
            make_component(sharing_bias=1.5)

    def test_efficiency_lookup_with_default(self):
        comp = make_component()
        assert comp.efficiency_for(LayerType.CONV) == 0.5
        assert comp.efficiency_for(LayerType.LRN) == 0.5  # fallback

    def test_utilisation_increases_with_kernel_size(self):
        comp = make_component()
        small = comp.utilisation(10_000, 64, 64)
        large = comp.utilisation(100_000_000, 64, 64)
        assert small < large <= 1.0

    def test_utilisation_penalises_narrow_channels(self):
        comp = make_component(channel_sat=32)
        narrow = comp.utilisation(10_000_000, 4, 4)
        wide = comp.utilisation(10_000_000, 64, 64)
        assert narrow < wide

    def test_utilisation_floor(self):
        comp = make_component()
        assert comp.utilisation(1, 1, 1) >= 0.05

    def test_interference_monotone(self):
        comp = make_component()
        factors = [comp.interference_factor(n) for n in range(1, 6)]
        assert factors[0] == 1.0
        assert all(a < b for a, b in zip(factors, factors[1:]))


class TestLayerLatency:
    def test_dispatch_overhead_is_floor(self):
        comp = make_component(dispatch_overhead_s=5e-3)
        tiny = LayerSpec(0, LayerType.ADD, (1, 1, 1), (1, 1, 1),
                         (0, 0, 0, 0), 0, Activation.NONE, (0, 0), (1, 1))
        assert layer_latency(tiny, comp) >= 5e-3

    def test_compute_bound_layer_scales_with_peak(self):
        layer = big_conv()
        slow = layer_latency(layer, make_component(peak_macs_per_s=10e9))
        fast = layer_latency(layer, make_component(peak_macs_per_s=1000e9))
        assert slow > fast

    def test_memory_bound_layer_scales_with_bandwidth(self):
        # FC with enormous weights is memory bound.
        fc = LayerSpec(0, LayerType.FC, (4096, 1, 1), (4096, 1, 1),
                       (4096, 4096, 1, 1), 4096, Activation.NONE, (0, 0), (1, 1))
        slow = layer_latency(fc, make_component(mem_bw_bytes_per_s=1e9))
        fast = layer_latency(fc, make_component(mem_bw_bytes_per_s=100e9))
        assert slow > 2 * fast

    def test_block_latency_sums_layers(self):
        comp = make_component()
        model = get_model("alexnet")
        blk = model.blocks[0]
        assert block_latency(blk, comp) == pytest.approx(
            sum(layer_latency(l, comp) for l in blk.layers)
        )

    def test_model_latency_sums_blocks(self):
        comp = make_component()
        model = get_model("alexnet")
        assert model_latency(model, comp) == pytest.approx(
            sum(block_latency(b, comp) for b in model.blocks)
        )

    def test_solo_throughput_inverse(self):
        comp = make_component()
        model = get_model("alexnet")
        assert solo_throughput(model, comp) == pytest.approx(
            1.0 / model_latency(model, comp)
        )


class TestTransferLink:
    def test_transfer_time(self):
        link = TransferLink(bandwidth_bytes_per_s=1e9, latency_s=1e-3)
        assert link.transfer_time(1_000_000) == pytest.approx(2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransferLink(bandwidth_bytes_per_s=0, latency_s=0)
        with pytest.raises(ValueError):
            TransferLink(bandwidth_bytes_per_s=1e9, latency_s=-1)


class TestPlatform:
    def test_orange_pi_structure(self):
        p = orange_pi_5()
        assert p.num_components == 3
        assert p.components[GPU].kind == "gpu"
        assert p.components[BIG].kind == "big"
        assert p.components[LITTLE].kind == "little"
        assert p.gpu is p.components[0]

    def test_duplicate_names_rejected(self):
        c = make_component()
        with pytest.raises(ValueError):
            Platform("bad", (c, c), TransferLink(1e9, 0))

    def test_empty_platform_rejected(self):
        with pytest.raises(ValueError):
            Platform("empty", (), TransferLink(1e9, 0))

    def test_ideal_throughput_uses_gpu(self):
        p = orange_pi_5()
        m = get_model("resnet50")
        assert p.ideal_throughput(m) == pytest.approx(
            solo_throughput(m, p.gpu)
        )
