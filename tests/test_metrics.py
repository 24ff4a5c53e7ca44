"""Unit tests for the metrics package."""

import numpy as np
import pytest

from repro.hw import orange_pi_5
from repro.mapping import gpu_only_mapping
from repro.metrics import (
    STARVATION_EPSILON,
    baseline_result,
    pearson_r,
)
from repro.sim import simulate
from repro.zoo import get_model

PLATFORM = orange_pi_5()


def result_for(names):
    workload = [get_model(n) for n in names]
    return simulate(workload, gpu_only_mapping(workload), PLATFORM)


class TestThroughputMetrics:
    def test_baseline_result_is_gpu_only(self):
        workload = [get_model("alexnet")]
        base = baseline_result(workload, PLATFORM)
        assert base.rates[0] == pytest.approx(base.ideal_rates[0])

    def test_average_and_potential_passthrough(self):
        r = result_for(["alexnet", "resnet50"])
        assert r.average_throughput == r.rates.mean()
        np.testing.assert_array_equal(r.potentials, r.rates / r.ideal_rates)


class TestStarvation:
    def test_epsilon_documented_value(self):
        assert STARVATION_EPSILON == 0.02


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson_r([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_vector_gives_zero(self):
        assert pearson_r([1, 1, 1], [1, 2, 3]) == 0.0

    def test_symmetry(self):
        x, y = [1.0, 4.0, 2.0, 8.0], [0.5, 2.5, 1.0, 3.0]
        assert pearson_r(x, y) == pytest.approx(pearson_r(y, x))

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.normal(size=8), rng.normal(size=8)
            assert -1.0 <= pearson_r(x, y) <= 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            pearson_r([1], [1])
