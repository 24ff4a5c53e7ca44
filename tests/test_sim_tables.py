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
    tables_for,
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
                                     tables_for(PLATFORM))
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
        # Private tables: the spoiled constants must not reach the shared
        # set every later solve on this platform reads.
        with pytest.raises(ValueError, match="solver buffer|non-negative"):
            solve_steady_state_batch(WORKLOAD, [gpu_only_mapping(WORKLOAD)],
                                     PlatformTables(PLATFORM))
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
    @needs_compiler
    def test_tables_do_not_change_results(self):
        """Private tables, cold and then warm, solve to the bits of the
        platform's shared set."""
        rng = np.random.default_rng(3)
        mappings = [uniform_block_mapping(WORKLOAD, 3, rng)
                    for _ in range(4)]
        shared = simulate_batch(WORKLOAD, mappings, PLATFORM)
        tables = PlatformTables(PLATFORM)
        for _ in range(2):   # cold model tables, then warm
            private = solve_steady_state_batch(WORKLOAD, mappings, tables)
            for p, s in zip(private, shared):
                np.testing.assert_array_equal(p.rates, s.rates)
                np.testing.assert_array_equal(
                    p.component_utilisation,
                    s.solution.component_utilisation)
                assert p.iterations == s.solution.iterations
        np.testing.assert_array_equal(tables.ideal_rates(WORKLOAD),
                                      shared[0].ideal_rates)

    @needs_compiler
    def test_one_table_set_per_platform_value(self):
        """Equal platforms share one table set, another platform gets its
        own, and cache misses and plain ``simulate_batch`` calls fill the
        same model tables: each model's once."""
        tables_for.cache_clear()
        tables = tables_for(orange_pi_5())
        assert tables_for(PLATFORM) is tables
        other = tables_for(jetson_class())
        assert other is not tables and other.platform == jetson_class()

        def arena_size():
            return tables.model_tables([])[1].size

        def size_of(workload):
            return sum((PLATFORM.num_components + 2) * m.num_blocks
                       for m in workload)

        EvaluationCache(orange_pi_5()).simulate(
            WORKLOAD, [gpu_only_mapping(WORKLOAD)])
        assert arena_size() == size_of(WORKLOAD)
        rows, _ = tables.model_tables(WORKLOAD)
        more = WORKLOAD[::-1] + [get_model("mobilenet")]
        simulate_batch(more, [gpu_only_mapping(more)], orange_pi_5())
        assert arena_size() == size_of(more)
        assert tables.model_tables(WORKLOAD)[0] == rows
        assert other.model_tables([])[1].size == 0

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
