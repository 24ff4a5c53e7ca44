"""Per-platform solver tables and the C library's raw-pointer buffers."""

import numpy as np
import pytest

from repro.hw import jetson_class, orange_pi_5
from repro.mapping import gpu_only_mapping, uniform_block_mapping
from repro.hw.latency import block_latencies
from repro.sim import (
    EvaluationCache,
    PlatformTables,
    _cext,
    simulate_batch,
    solve_steady_state_batch,
)
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
            reals = np.zeros(reals.size, dtype=np.float32)
        elif kind == "int32":
            ints = np.zeros(ints.size, dtype=np.int32)
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
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("pack_stages_c", "solve_packed_c"):
            monkeypatch.setattr(_cext, name,
                                lambda *args, name=name: calls.append(name))
        return calls

    @pytest.mark.parametrize("kind",
                             ["float32", "int32", "strided", "short", "long"])
    def test_bad_buffer_raises_before_the_kernel(self, monkeypatch, calls,
                                                 kind):
        monkeypatch.setattr(_cext, "empty_buffers", _bad_buffers(kind))
        with pytest.raises(ValueError, match="solver buffer"):
            solve_steady_state_batch(WORKLOAD, [gpu_only_mapping(WORKLOAD)],
                                     PLATFORM)
        assert calls == []

    @pytest.mark.parametrize("kind", ["arena_float32", "arena_short",
                                      "row_negative", "consts_short",
                                      "consts_strided"])
    def test_bad_pack_input_raises_before_the_packer(self, monkeypatch,
                                                     calls, kind):
        real = PlatformTables.model_tables

        def model_tables(self, workload):
            rows, arena = real(self, workload)
            if kind == "arena_float32":
                arena = arena.astype(np.float32)
            elif kind == "arena_short":
                arena = arena[:-1]
            elif kind == "row_negative":
                rows[-1] = (rows[-1][0], -1)
            elif kind == "consts_short":
                self._constants[len(workload)] = self.packer_constants(
                    len(workload) - 1)
            elif kind == "consts_strided":
                consts = self.packer_constants(len(workload))
                self._constants[len(workload)] = np.repeat(consts, 2)[::2]
            return rows, arena

        monkeypatch.setattr(PlatformTables, "model_tables", model_tables)
        # The last model's table ends the arena, so a short arena cuts it.
        with pytest.raises(ValueError, match="solver buffer|non-negative"):
            solve_steady_state_batch(WORKLOAD, [gpu_only_mapping(WORKLOAD)],
                                     PLATFORM)
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
        for _ in range(2):   # cold model tables, then warm
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
        """The memo is the per-model packer tables: one per model, built
        on the first miss and reused for any workload holding it."""
        cache = EvaluationCache(PLATFORM)
        cache.simulate(WORKLOAD, [gpu_only_mapping(WORKLOAD)])
        tables = cache._tables
        assert tables.platform is PLATFORM
        _, arena = tables.model_tables(WORKLOAD)
        cache.simulate(WORKLOAD[::-1], [gpu_only_mapping(WORKLOAD[::-1])])
        assert tables.model_tables(WORKLOAD)[1] is arena

    def test_model_table_layout(self):
        """Each row points at its model's latencies on every component,
        handoff seconds and layer counts, all as float64."""
        tables = PlatformTables(PLATFORM)
        rows, arena = tables.model_tables(WORKLOAD)
        num_comp = PLATFORM.num_components
        for model, (blocks, offset) in zip(WORKLOAD, rows):
            assert blocks == model.num_blocks
            table = arena[offset:offset + (num_comp + 2) * blocks]
            table = table.reshape(num_comp + 2, blocks)
            for c in range(num_comp):
                assert table[c].tolist() == block_latencies(
                    model, PLATFORM.component(c))
            assert table[num_comp].tolist() == [
                PLATFORM.link.transfer_time(b.input_bytes)
                for b in model.blocks]
            assert table[num_comp + 1].tolist() == [
                len(b.layers) for b in model.blocks]

    def test_ideal_rates_are_fresh_arrays(self):
        tables = PlatformTables(PLATFORM)
        first = tables.ideal_rates(WORKLOAD)
        first[:] = 0.0
        np.testing.assert_array_equal(
            tables.ideal_rates(WORKLOAD),
            [PLATFORM.ideal_throughput(m) for m in WORKLOAD])

    def test_packer_constants(self):
        tables = PlatformTables(PLATFORM)
        consts = tables.packer_constants(3)
        num_comp = PLATFORM.num_components
        np.testing.assert_array_equal(consts[:num_comp], tables.hol)
        np.testing.assert_array_equal(consts[num_comp:2 * num_comp],
                                      tables.kappa)
        np.testing.assert_array_equal(consts[2 * num_comp:],
                                      tables.gamma(3).ravel())
        assert tables.packer_constants(3) is consts

    def test_gamma_matches_interference_factor(self):
        tables = PlatformTables(PLATFORM)
        gamma = tables.gamma(3)
        for c, comp in enumerate(PLATFORM.components):
            for n in range(4):
                assert gamma[c, n] == comp.interference_factor(n)
        assert tables.gamma(3) is gamma
