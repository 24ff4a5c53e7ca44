"""Per-platform solver tables and the kernel's raw-pointer buffers."""

import numpy as np
import pytest

from repro.hw import jetson_class, orange_pi_5
from repro.mapping import gpu_only_mapping, uniform_block_mapping
from repro.sim import (
    EvaluationCache,
    PlatformTables,
    _cext,
    compute_stage_demands,
    simulate_batch,
    solve_steady_state_batch,
)
from repro.sim import tables as tables_module
from repro.zoo import get_model

PLATFORM = orange_pi_5()
WORKLOAD = [get_model(n) for n in ("alexnet", "squeezenet_v2", "resnet12")]

needs_compiler = pytest.mark.skipif(
    _cext._compiler() is None, reason="no C compiler on this host")


def _bad_buffers(kind):
    """``_cext.empty_buffers`` with one buffer spoiled in one way."""
    real = _cext.empty_buffers

    def empty_buffers(n_batch, n_stages, num_dnns, num_comp):
        ints, reals, out = real(n_batch, n_stages, num_dnns, num_comp)
        if kind == "float32":
            reals = reals.astype(np.float32)
        elif kind == "int32":
            ints = ints.astype(np.int32)
        elif kind == "strided":
            out = np.empty(2 * out.size)[::2]
        elif kind == "short":
            reals = reals[:-1]
        elif kind == "long":
            out = np.empty(out.size + 1)
        return ints, reals, out

    return empty_buffers


@needs_compiler
class TestKernelBuffers:
    @pytest.mark.parametrize("kind",
                             ["float32", "int32", "strided", "short", "long"])
    def test_bad_buffer_raises_before_the_kernel(self, monkeypatch, kind):
        demands = compute_stage_demands(
            WORKLOAD, gpu_only_mapping(WORKLOAD), PLATFORM)
        calls = []
        monkeypatch.setattr(_cext, "empty_buffers", _bad_buffers(kind))
        monkeypatch.setattr(_cext, "solve_packed_c",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="solver buffer"):
            solve_steady_state_batch([demands], len(WORKLOAD), PLATFORM)
        assert calls == []

    def test_good_buffers_pass(self):
        _cext.check_buffers(*_cext.empty_buffers(2, 5, 3, 3), 2, 5, 3, 3)

    def test_layout_lengths(self):
        assert _cext.buffer_lengths(2, 5, 3, 4) == (13, 20, 2 * 9)

    def test_views_tile_the_buffers(self):
        """Every buffer element belongs to exactly one named view."""
        ints, reals, out = _cext.empty_buffers(2, 5, 3, 4)
        for buf, views in ((ints, _cext.input_views(ints, reals, 2, 5)[:3]),
                           (reals, _cext.input_views(ints, reals, 2, 5)[3:]),
                           (out, _cext.output_views(out, 2, 3, 4))):
            buf[:] = 0
            for view in views:
                view += 1
            assert (buf == 1).all()
        rates, util, iterations, converged = _cext.output_views(out, 2, 3, 4)
        assert rates.shape == (2, 3) and util.shape == (2, 4)
        assert iterations.size == converged.size == 2


class TestPlatformTables:
    def test_tables_do_not_change_results(self):
        rng = np.random.default_rng(3)
        mappings = [uniform_block_mapping(WORKLOAD, 3, rng)
                    for _ in range(4)]
        tables = PlatformTables(PLATFORM)
        for _ in range(2):   # cold memo, then warm
            warm = simulate_batch(WORKLOAD, mappings, PLATFORM, tables)
            cold = simulate_batch(WORKLOAD, mappings, PLATFORM)
            for w, c in zip(warm, cold):
                np.testing.assert_array_equal(w.rates, c.rates)
                np.testing.assert_array_equal(w.ideal_rates, c.ideal_rates)
                np.testing.assert_array_equal(
                    w.solution.component_utilisation,
                    c.solution.component_utilisation)
                assert w.solution.iterations == c.solution.iterations

    def test_tables_of_another_platform_rejected(self):
        with pytest.raises(ValueError, match="tables were built for"):
            simulate_batch(WORKLOAD, [gpu_only_mapping(WORKLOAD)], PLATFORM,
                           PlatformTables(jetson_class()))

    def test_equal_platform_accepted(self):
        simulate_batch(WORKLOAD, [gpu_only_mapping(WORKLOAD)], PLATFORM,
                       PlatformTables(orange_pi_5()))

    def test_cache_owns_one_table_and_fills_its_memo(self):
        cache = EvaluationCache(PLATFORM)
        cache.simulate(WORKLOAD, [gpu_only_mapping(WORKLOAD)])
        assert len(cache._tables.demands) == len(WORKLOAD)
        assert cache._tables.platform is PLATFORM

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tables_module, "DEMAND_MEMO_MAX", 5)
        tables = PlatformTables(PLATFORM)
        rng = np.random.default_rng(0)
        for _ in range(6):
            mapping = uniform_block_mapping(WORKLOAD, 3, rng)
            compute_stage_demands(WORKLOAD, mapping, PLATFORM, tables)
            assert len(tables.demands) <= 5

    def test_ideal_rates_are_fresh_arrays(self):
        tables = PlatformTables(PLATFORM)
        first = tables.ideal_rates(WORKLOAD)
        first[:] = 0.0
        np.testing.assert_array_equal(
            tables.ideal_rates(WORKLOAD),
            [PLATFORM.ideal_throughput(m) for m in WORKLOAD])

    def test_gamma_matches_interference_factor(self):
        tables = PlatformTables(PLATFORM)
        gamma = tables.gamma(3)
        for c, comp in enumerate(PLATFORM.components):
            for n in range(4):
                assert gamma[c, n] == comp.interference_factor(n)
        assert tables.gamma(3) is gamma
