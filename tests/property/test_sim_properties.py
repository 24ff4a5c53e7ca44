"""Property-based tests (hypothesis) for mapping and simulator invariants."""

from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hw import orange_pi_5
from repro.mapping import (
    Mapping,
    extract_stages,
    gpu_only_mapping,
    random_partition_mapping,
    uniform_block_mapping,
)
from repro.sim import (
    MappingDecision,
    compute_stage_demands,
    run_dynamic_scenario,
    simulate,
)
from repro.workloads import TraceConfig, poisson_trace
from repro.zoo import MODEL_POOL, get_model

PLATFORM = orange_pi_5()
SMALL_POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet12")


def workload_strategy():
    return st.lists(st.sampled_from(SMALL_POOL), min_size=1, max_size=3,
                    unique=True)


@settings(max_examples=25, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_random_mappings_always_valid(names, seed):
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    for maker in (random_partition_mapping, uniform_block_mapping):
        mapping = maker(workload, 3, rng)
        mapping.validate_against(workload, 3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=30))
def test_stage_extraction_partitions_blocks(assignment):
    stages = extract_stages(0, tuple(assignment))
    # Stages tile the block range exactly, in order, without overlap.
    assert stages[0].block_start == 0
    assert stages[-1].block_end == len(assignment)
    for a, b in zip(stages, stages[1:]):
        assert a.block_end == b.block_start
        assert a.component != b.component  # maximal runs
    for stage in stages:
        assert all(assignment[i] == stage.component
                   for i in range(stage.block_start, stage.block_end))


@settings(max_examples=20, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_rates_positive_finite_and_bounded_by_solo(names, seed):
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    result = simulate(workload, mapping, PLATFORM)
    assert np.isfinite(result.rates).all()
    assert (result.rates > 0).all()
    # No DNN can beat the fastest single-component solo execution of the
    # entire platform by an unphysical margin: bound by the sum of ideal
    # rates across components (a loose but universal cap).
    from repro.hw import solo_throughput

    for model, rate in zip(workload, result.rates):
        cap = sum(solo_throughput(model, c) for c in PLATFORM.components)
        assert rate <= cap * 1.001


@settings(max_examples=20, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_component_utilisation_never_exceeds_capacity(names, seed):
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = uniform_block_mapping(workload, 3, rng)
    result = simulate(workload, mapping, PLATFORM)
    assert (result.solution.component_utilisation <= 1.0 + 1e-6).all()


@settings(max_examples=20, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_stage_demands_cover_all_blocks_and_kernels(names, seed):
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    demands = compute_stage_demands(workload, mapping, PLATFORM)
    blocks = sum(d.stage.num_blocks for d in demands)
    kernels = sum(d.num_kernels for d in demands)
    assert blocks == sum(m.num_blocks for m in workload)
    assert kernels == sum(m.num_layers for m in workload)
    assert all(d.seconds_per_inference > 0 for d in demands)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(MODEL_POOL))
def test_single_dnn_gpu_mapping_reaches_ideal(name):
    model = get_model(name)
    mapping = Mapping((tuple([0] * model.num_blocks),))
    result = simulate([model], mapping, PLATFORM)
    np.testing.assert_allclose(result.potentials, [1.0], rtol=1e-9)


@settings(max_examples=15, deadline=None)
@given(workload_strategy(), st.integers(0, 2**31 - 1))
def test_simulation_is_deterministic(names, seed):
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mapping = random_partition_mapping(workload, 3, rng)
    a = simulate(workload, mapping, PLATFORM)
    b = simulate(workload, mapping, PLATFORM)
    np.testing.assert_array_equal(a.rates, b.rates)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1),
       latency=st.sampled_from([0.0, 2.0, 20.0, 200.0]),
       rate=st.sampled_from([1 / 10, 1 / 40]),
       snap=st.sampled_from([0.0, 25.0]))
def test_dynamic_timeline_tiles_the_horizon(seed, latency, rate, snap):
    """Segments of a dynamic scenario tile ``[0, horizon)`` and the planner
    runs once per distinct event time that leaves a non-empty active set
    and whose gap-deferred time is below the horizon, whatever the
    decision latency.  ``snap`` floors event times onto a grid so that
    events coincide."""
    horizon = 400.0
    config = TraceConfig(horizon_s=horizon, arrival_rate_per_s=rate,
                         mean_session_s=90.0, max_concurrent=3,
                         pool=SMALL_POOL)
    events = poisson_trace(np.random.default_rng(seed), config)
    if snap:
        events = [replace(e, time=float(np.floor(e.time / snap) * snap))
                  for e in events]
        events.sort(key=lambda e: e.time)
    assume(events)
    calls = []

    def planner(workload, priorities):
        calls.append(tuple(m.name for m in workload))
        return MappingDecision(gpu_only_mapping(workload), latency)

    timeline = run_dynamic_scenario(events, planner, PLATFORM, horizon)

    segments = timeline.segments
    assert segments[0].t_start == 0.0
    assert segments[-1].t_end == horizon
    for prev, nxt in zip(segments, segments[1:]):
        assert prev.t_end == nxt.t_start
    assert all(seg.duration > 0 for seg in segments)
    assert sum(seg.duration for seg in segments) == pytest.approx(
        horizon, rel=1e-12)

    expected = 0
    clock = 0.0
    active: set[str] = set()
    for t, batch in groupby(events, key=lambda e: e.time):
        if t >= horizon:
            break
        for e in batch:
            if e.kind == "arrival":
                active.add(e.model.name)
            elif e.kind == "departure":
                active.discard(e.model.name)
        # An event inside a decision gap takes effect when it closes.
        clock = max(clock, t)
        if active and clock < horizon:
            expected += 1
            clock = min(clock + latency, horizon)
    assert len(calls) == expected
