"""Differential fuzz: the C contention-solver kernel vs the scalar oracle.

The contract is bit identity.  For every element of a packed batch,
:func:`repro.sim.solve_steady_state_batch` (the C kernel behind every
production solve) must return exactly what the scalar numpy oracle
:func:`repro.sim.solve_steady_state` returns on that element alone:
equal rates, stage allocations, stage demands and utilisation under
``assert_array_equal``, and equal iteration counts and convergence flags.

Randomized demand sets cover both platform presets, heterogeneous stage
counts inside one batch, limit-cycle instances driven past the burn-in,
rollout-shaped mappings of five-DNN plan mixes, truncated ``max_iter``
budgets, empty elements and non-positive demands.  The limit-cycle
batches must hold both a cycle-averaged convergence and a capped solve,
so the kernel's window check is compared on both of its outcomes.
The kernel tests skip only on a host with no C compiler; where ``cc``
exists, a failed build or load fails them.  The no-compiler fallback
(scalar oracle after a one-time ``RuntimeWarning``) is tested everywhere.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import jetson_class, orange_pi_5
from repro.mapping import random_partition_mapping, uniform_block_mapping
from repro.search import MCTS, MCTSConfig
from repro.sim import (
    _cext,
    compute_stage_demands,
    engine,
    simulate,
    simulate_batch,
    solve_steady_state,
    solve_steady_state_batch,
)
from repro.sim.contention import _CYCLE_BURN_IN, _MAX_ITER
from repro.zoo import get_model

PLATFORMS = {"orange_pi_5": orange_pi_5(), "jetson_class": jetson_class()}
SMALL_POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet12")
#: A mix that reliably drives the fixed point into limit-cycle territory.
CYCLE_POOL = ("squeezenet_v2", "inception_v4", "resnet50")
#: Five-DNN mixes shaped like the benchmark's cold plans: one model from
#: each of five block-count strata of the zoo.
PLAN_MIXES = (
    ("yolo_v3", "inception_v3", "shufflenet", "vgg19", "squeezenet_v2"),
    ("vgg16", "alexnet", "mobilenet_v2", "mobilenet", "efficientnet_b2"),
    ("resnet50_v2", "inception_resnet_v2", "efficientnet_b1", "googlenet",
     "inception_v4"),
)

needs_compiler = pytest.mark.skipif(
    _cext._compiler() is None, reason="no C compiler on this host")


def _demand_batch(pool, num_models, seed, batch_size, platform):
    """Half coherent partition mappings, half fragmented per-block ones,
    so one batch mixes short and long stage lists."""
    rng = np.random.default_rng(seed)
    workload = [get_model(n) for n in pool[:num_models]]
    sets = []
    for i in range(batch_size):
        maker = (random_partition_mapping if i % 2 == 0
                 else uniform_block_mapping)
        mapping = maker(workload, platform.num_components, rng)
        sets.append(compute_stage_demands(workload, mapping, platform))
    return workload, sets


def _rollout_batch(names, seed, batch_size, platform):
    """Demand sets of MCTS rollouts from the empty prefix: the mappings a
    cold plan actually solves."""
    workload = [get_model(n) for n in names]
    search = MCTS(workload, platform.num_components, None,
                  MCTSConfig(seed=seed))
    return workload, [compute_stage_demands(workload, search._complete([]),
                                            platform)
                      for _ in range(batch_size)]


def _assert_cycle_and_cap(solutions, max_iter):
    """At least one solve settled on the limit-cycle average and one ran
    into the iteration cap."""
    assert any(s.converged and s.iterations >= _CYCLE_BURN_IN
               for s in solutions)
    assert any(not s.converged and s.iterations == max_iter
               for s in solutions)


def _assert_bit_identical(want, got):
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    np.testing.assert_array_equal(got.rates, want.rates)
    np.testing.assert_array_equal(got.stage_allocations,
                                  want.stage_allocations)
    np.testing.assert_array_equal(got.stage_demands, want.stage_demands)
    np.testing.assert_array_equal(got.component_utilisation,
                                  want.component_utilisation)


def _assert_matches_oracle(sets, num_dnns, platform, max_iter=_MAX_ITER):
    got = solve_steady_state_batch(sets, num_dnns, platform, max_iter)
    assert len(got) == len(sets)
    oracle = [solve_steady_state(d, num_dnns, platform, max_iter)
              for d in sets]
    for want, sol in zip(oracle, got):
        _assert_bit_identical(want, sol)
    return oracle


@needs_compiler
class TestKernel:
    def test_kernel_builds_and_loads(self):
        assert _cext.load_solver() is not None, \
            "a C compiler is present but the solver kernel failed to build"

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(PLATFORMS)), st.integers(1, 4),
           st.integers(0, 2**31 - 1), st.integers(1, 6))
    def test_fuzz_bit_identical(self, platform_name, num_models, seed,
                                batch_size):
        platform = PLATFORMS[platform_name]
        workload, sets = _demand_batch(SMALL_POOL, num_models, seed,
                                       batch_size, platform)
        _assert_matches_oracle(sets, len(workload), platform)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 3, 7, 40]))
    def test_truncated_budget_bit_identical(self, seed, max_iter):
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(SMALL_POOL, 3, seed, 3, platform)
        _assert_matches_oracle(sets, len(workload), platform,
                               max_iter=max_iter)

    def test_limit_cycle_instances_bit_identical(self):
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(CYCLE_POOL, 3, 0, 16, platform)
        oracle = _assert_matches_oracle(sets, len(workload), platform)
        _assert_cycle_and_cap(oracle, _MAX_ITER)

    @pytest.mark.parametrize("max_iter", [200, _MAX_ITER])
    def test_rollout_limit_cycles_bit_identical(self, max_iter):
        platform = PLATFORMS["orange_pi_5"]
        oracle = []
        for names in PLAN_MIXES:
            workload, sets = _rollout_batch(names, 0, 8, platform)
            oracle += _assert_matches_oracle(sets, len(workload), platform,
                                             max_iter=max_iter)
        _assert_cycle_and_cap(oracle, max_iter)

    def test_empty_elements_mixed_in(self):
        platform = PLATFORMS["orange_pi_5"]
        workload, sets = _demand_batch(SMALL_POOL, 2, 1, 2, platform)
        got = solve_steady_state_batch([[], sets[0], [], sets[1]],
                                       len(workload), platform)
        for sol in (got[0], got[2]):
            assert sol.converged and sol.iterations == 0
            assert sol.stage_allocations.size == 0
            np.testing.assert_array_equal(sol.rates,
                                          np.zeros(len(workload)))
        for demands, sol in ((sets[0], got[1]), (sets[1], got[3])):
            _assert_bit_identical(
                solve_steady_state(demands, len(workload), platform), sol)

    def test_all_empty_and_zero_batches(self):
        platform = PLATFORMS["orange_pi_5"]
        assert solve_steady_state_batch([], 2, platform) == []
        batch = solve_steady_state_batch([[], []], 2, platform)
        assert len(batch) == 2 and all(s.converged for s in batch)

    @pytest.mark.parametrize("seconds", [0.0, -1e-3])
    def test_nonpositive_demand_rejected(self, seconds):
        platform = PLATFORMS["orange_pi_5"]
        _, sets = _demand_batch(SMALL_POOL, 2, 2, 1, platform)
        first = sets[0][0]
        bad = [first.__class__(stage=first.stage,
                               seconds_per_inference=seconds,
                               num_kernels=1), *sets[0][1:]]
        with pytest.raises(ValueError, match="must be positive"):
            solve_steady_state(bad, 2, platform)
        with pytest.raises(ValueError, match="must be positive"):
            solve_steady_state_batch([sets[0], bad], 2, platform)

    @pytest.mark.parametrize("component, dnn", [(-1, 0), (0, -1), (0, 2)])
    def test_out_of_range_indices_rejected(self, component, dnn):
        """The kernel indexes scratch arrays by component and DNN without
        bounds checks, so bad indices must stop in Python (an index past
        the end already fails numpy's context count)."""
        platform = PLATFORMS["orange_pi_5"]
        _, sets = _demand_batch(SMALL_POOL, 2, 2, 1, platform)
        first = sets[0][0]
        stage = first.stage._replace(component=component, dnn_index=dnn)
        bad = [dataclasses.replace(first, stage=stage), *sets[0][1:]]
        with pytest.raises((ValueError, IndexError), match="out of"):
            solve_steady_state_batch([sets[0], bad], 2, platform)

    def test_simulate_batch_matches_simulate(self):
        platform = PLATFORMS["orange_pi_5"]
        workload = [get_model(n) for n in ("alexnet", "resnet12")]
        rng = np.random.default_rng(5)
        mappings = [uniform_block_mapping(workload, platform.num_components,
                                          rng) for _ in range(6)]
        for mapping, got in zip(mappings,
                                simulate_batch(workload, mappings,
                                               platform)):
            want = simulate(workload, mapping, platform)
            _assert_bit_identical(want.solution, got.solution)
            np.testing.assert_array_equal(got.ideal_rates, want.ideal_rates)
            assert got.workload_names == want.workload_names
        assert simulate_batch(workload, [], platform) == []


def test_no_kernel_falls_back_to_oracle_warning_once(monkeypatch):
    """With no loadable kernel, the simulator answers with the scalar
    oracle after exactly one RuntimeWarning per process."""
    platform = PLATFORMS["orange_pi_5"]
    workload = [get_model(n) for n in SMALL_POOL[:2]]
    rng = np.random.default_rng(5)
    mappings = [uniform_block_mapping(workload, platform.num_components,
                                      rng) for _ in range(3)]
    monkeypatch.setattr(_cext, "load_solver", lambda: None)
    monkeypatch.setattr(engine, "_fallback_warned", False)
    with pytest.warns(RuntimeWarning, match="scalar numpy oracle"):
        got = simulate_batch(workload, mappings, platform)
    for mapping, sol in zip(mappings, got):
        demands = compute_stage_demands(workload, mapping, platform)
        _assert_bit_identical(
            solve_steady_state(demands, len(workload), platform),
            sol.solution)
    # Second call: the warning was already issued and must stay quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(workload, mappings[0], platform)
