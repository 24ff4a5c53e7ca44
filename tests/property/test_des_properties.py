"""Property-based tests for the discrete-event simulator and energy model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import orange_pi_5, orange_pi_5_power
from repro.hw.energy import energy_report
from repro.mapping import random_partition_mapping
from repro.sim import DesConfig, simulate, simulate_des
from repro.zoo import get_model

PLATFORM = orange_pi_5()
POWER = orange_pi_5_power()
SMALL_POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet12")


def workload_strategy():
    return st.lists(st.sampled_from(SMALL_POOL), min_size=1, max_size=3,
                    unique=True)


@settings(max_examples=15, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_des_rates_nonnegative_and_bounded(names, seed):
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    result = simulate_des(workload, mapping, PLATFORM)
    assert (result.rates >= 0).all()
    # Pipelining can beat any single component solo (that is its point),
    # but never the sum of all components running flat out in parallel.
    from repro.hw import solo_throughput

    for i, model in enumerate(workload):
        parallel_roof = sum(solo_throughput(model, PLATFORM.component(c))
                            for c in range(3))
        assert result.rates[i] <= parallel_roof * 1.05


@settings(max_examples=15, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_des_latency_at_least_inverse_rate_bound(names, seed):
    """Little's-law sanity: pipeline latency >= service of slowest stage."""
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    result = simulate_des(workload, mapping, PLATFORM)
    from repro.sim import compute_stage_demands

    demands = compute_stage_demands(workload, mapping, PLATFORM)
    for i, name in enumerate(result.workload_names):
        if result.latencies[name].size == 0:
            continue
        slowest = max(d.seconds_per_inference for d in demands
                      if d.dnn_index == i)
        assert result.latencies[name].min() >= slowest * 0.999


@settings(max_examples=15, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_des_completion_counts_consistent(names, seed):
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    config = DesConfig(horizon_s=15.0, warmup_s=3.0)
    result = simulate_des(workload, mapping, PLATFORM, config)
    for i, name in enumerate(result.workload_names):
        measured = len(result.latencies[name])
        assert result.completions[i] >= measured
        assert result.rates[i] == measured / result.measured_seconds


@settings(max_examples=15, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_energy_report_conserves_power(names, seed):
    """System watts equal component watts plus board overhead, and no
    component draws less than its idle watts."""
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    report = energy_report(workload, mapping, PLATFORM, POWER)
    assert report.system_watts == (
        report.component_watts.sum() + POWER.board_overhead_w)
    assert all(w >= c.idle_w for w, c in zip(report.component_watts,
                                             POWER.components))


@settings(max_examples=15, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_energy_utilisation_within_unit_interval(names, seed):
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    report = energy_report(workload, mapping, PLATFORM, POWER)
    assert (report.component_utilisation >= 0).all()
    assert (report.component_utilisation <= 1.0).all()


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(SMALL_POOL), st.integers(0, 2**31 - 1))
def test_des_agrees_with_analytical_for_single_dnn(name, seed):
    """With one DNN there is no cross-DNN contention: the two engines
    model the same pipeline and must agree closely."""
    workload = [get_model(name)]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    analytical = simulate(workload, mapping, PLATFORM).rates[0]
    des = simulate_des(workload, mapping, PLATFORM).rates[0]
    assert abs(des - analytical) / analytical < 0.15
