"""Tests for the discrete-event pipeline simulator and its agreement with
the analytical steady-state engine."""

import numpy as np
import pytest

from repro.hw import orange_pi_5
from repro.mapping import (
    gpu_only_mapping,
    random_partition_mapping,
    single_component_mapping,
)
from repro.sim import DesConfig, simulate, simulate_des
from repro.zoo import get_model

PLATFORM = orange_pi_5()


def wl(*names):
    return [get_model(n) for n in names]


class TestDesConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DesConfig(horizon_s=0)
        with pytest.raises(ValueError):
            DesConfig(warmup_s=-1.0)
        with pytest.raises(ValueError):
            DesConfig(horizon_s=10.0, warmup_s=10.0)
        with pytest.raises(ValueError):
            DesConfig(buffer_depth=0)

    def test_defaults_are_sane(self):
        config = DesConfig()
        assert config.warmup_s < config.horizon_s
        assert config.buffer_depth >= 1


class TestDesBasics:
    def test_determinism(self):
        workload = wl("alexnet", "squeezenet")
        mapping = gpu_only_mapping(workload)
        a = simulate_des(workload, mapping, PLATFORM)
        b = simulate_des(workload, mapping, PLATFORM)
        np.testing.assert_array_equal(a.rates, b.rates)
        np.testing.assert_array_equal(a.completions, b.completions)

    def test_solo_dnn_matches_ideal_throughput(self):
        workload = wl("alexnet")
        result = simulate_des(workload, gpu_only_mapping(workload), PLATFORM)
        ideal = PLATFORM.ideal_throughput(workload[0])
        assert result.rates[0] == pytest.approx(ideal, rel=0.10)

    def test_rates_are_measured_window_counts(self):
        workload = wl("alexnet", "squeezenet")
        config = DesConfig(horizon_s=20.0, warmup_s=4.0)
        result = simulate_des(workload, gpu_only_mapping(workload),
                              PLATFORM, config)
        assert result.measured_seconds == pytest.approx(16.0)
        # completions include warm-up; measured rates cannot exceed them.
        assert np.all(result.completions >= result.rates
                      * result.measured_seconds - 1)

    def test_latency_percentiles_ordered(self):
        workload = wl("alexnet", "resnet50")
        rng = np.random.default_rng(2)
        mapping = random_partition_mapping(workload, 3, rng)
        result = simulate_des(workload, mapping, PLATFORM)
        for name in result.workload_names:
            p50 = result.latency_percentile(name, 50)
            p95 = result.latency_percentile(name, 95)
            p99 = result.latency_percentile(name, 99)
            assert 0 < p50 <= p95 <= p99

    def test_latency_bounded_below_by_service_chain(self):
        """One inference must spend at least its total service time."""
        workload = wl("resnet50")
        rng = np.random.default_rng(5)
        mapping = random_partition_mapping(workload, 3, rng)
        from repro.sim import compute_stage_demands

        demands = compute_stage_demands(workload, mapping, PLATFORM)
        floor = sum(d.seconds_per_inference for d in demands)
        result = simulate_des(workload, mapping, PLATFORM)
        assert result.latency_percentile("resnet50", 0) >= floor * 0.999

    def test_empty_latency_series_gives_nan(self):
        # A horizon too short for inception to finish even once.
        workload = wl("inception_v4")
        config = DesConfig(horizon_s=0.01, warmup_s=0.0)
        result = simulate_des(workload,
                              single_component_mapping(workload, 2),
                              PLATFORM, config)
        assert np.isnan(result.latency_percentile("inception_v4", 50))
        assert result.rates[0] == 0.0

    def test_interference_toggle_monotone(self):
        workload = wl("alexnet", "squeezenet", "mobilenet")
        mapping = gpu_only_mapping(workload)
        on = simulate_des(workload, mapping, PLATFORM,
                          DesConfig(apply_interference=True))
        off = simulate_des(workload, mapping, PLATFORM,
                           DesConfig(apply_interference=False))
        assert off.rates.sum() >= on.rates.sum()

    def test_deeper_buffers_do_not_hurt(self):
        workload = wl("alexnet", "resnet50")
        rng = np.random.default_rng(11)
        mapping = random_partition_mapping(workload, 3, rng)
        shallow = simulate_des(workload, mapping, PLATFORM,
                               DesConfig(buffer_depth=1))
        deep = simulate_des(workload, mapping, PLATFORM,
                            DesConfig(buffer_depth=4))
        assert deep.rates.sum() >= shallow.rates.sum() * 0.98

    def test_average_throughput_property(self):
        workload = wl("alexnet", "squeezenet")
        result = simulate_des(workload, gpu_only_mapping(workload), PLATFORM)
        assert result.average_throughput == pytest.approx(
            float(result.rates.mean()))


class TestDesVsAnalytical:
    """The two simulators share physics but not scheduling; they must agree
    on magnitudes and, more importantly, on mapping ordering."""

    def test_gpu_baseline_agreement(self):
        workload = wl("alexnet", "squeezenet", "resnet50")
        mapping = gpu_only_mapping(workload)
        analytical = simulate(workload, mapping, PLATFORM).rates
        des = simulate_des(workload, mapping, PLATFORM).rates
        np.testing.assert_allclose(des, analytical, rtol=0.15)

    def test_random_mapping_rate_agreement(self):
        workload = wl("alexnet", "squeezenet", "mobilenet")
        rng = np.random.default_rng(23)
        rel_errors = []
        for _ in range(8):
            mapping = random_partition_mapping(workload, 3, rng)
            analytical = simulate(workload, mapping, PLATFORM).rates
            des = simulate_des(workload, mapping, PLATFORM).rates
            rel_errors.append(
                np.abs(des - analytical) / np.maximum(analytical, 1e-9))
        assert float(np.mean(rel_errors)) < 0.25

    def test_mapping_ordering_agreement(self):
        """Average-T ordering across mappings must correlate strongly —
        this is what the manager actually relies on."""
        from repro.estimator.metrics import spearman_r

        workload = wl("alexnet", "squeezenet", "resnet50")
        rng = np.random.default_rng(31)
        analytical_t, des_t = [], []
        for _ in range(12):
            mapping = random_partition_mapping(workload, 3, rng)
            analytical_t.append(
                simulate(workload, mapping, PLATFORM).average_throughput)
            des_t.append(
                simulate_des(workload, mapping,
                             PLATFORM).average_throughput)
        rho = spearman_r(np.array(analytical_t), np.array(des_t))
        assert rho > 0.8

    def test_des_reproduces_baseline_collapse(self):
        """The motivation result: partitioning beats all-on-GPU, in the
        event simulation too, for the paper's Sec. II workload."""
        workload = wl("squeezenet_v2", "inception_v4", "resnet50", "vgg16")
        base = simulate_des(workload, gpu_only_mapping(workload),
                            PLATFORM).average_throughput
        rng = np.random.default_rng(7)
        wins = 0
        trials = 10
        for _ in range(trials):
            mapping = random_partition_mapping(workload, 3, rng)
            t = simulate_des(workload, mapping, PLATFORM).average_throughput
            wins += int(t > base)
        assert wins >= 6  # paper: 91 % of random mappings beat the baseline
