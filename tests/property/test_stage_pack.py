"""The C stage packer against the numpy oracle packer.

Production batch solves (:func:`repro.sim.solve_steady_state_batch`) hand
the batch's assignments to ``pack_stages`` in ``_csolver.c``, which
splits them into stages and writes the kernel's input buffers.  The
contract is byte identity: the ``ints`` and ``reals`` the kernel receives
must equal what the oracle packer
(:func:`tests.oracles.pack_reference.pack_demands`) writes from
:func:`repro.sim.compute_stage_demands` of the same mappings, weights
included.  The draws cover both platform presets, one to five DNNs
(drawn with repetition, so a model can sit at several positions),
partition, fragmented, GPU-only and rollout-shaped mappings, and tables
warmed by another workload.

Bad input must stop before the kernel: bad components, wrong assignment
lengths and wrong DNN counts before any C code runs, with
:meth:`repro.mapping.Mapping.validate_against`'s messages, and a
non-positive demand after the packer but before the kernel.  On the C
path no :class:`~repro.sim.demands.StageDemand` is built at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import jetson_class, orange_pi_5
from repro.mapping import (
    Mapping,
    gpu_only_mapping,
    random_partition_mapping,
    uniform_block_mapping,
)
from repro.search import MCTS, MCTSConfig
from repro.sim import (
    EvaluationCache,
    PlatformTables,
    _cext,
    compute_stage_demands,
    demands,
    engine,
    simulate_batch,
    solve_steady_state_batch,
    tables_for,
)
from repro.sim import tables as tables_module
from repro.zoo import get_model
from repro.zoo.builder import NetBuilder
from tests.oracles.pack_reference import pack_demands

PLATFORMS = (orange_pi_5(), jetson_class())
POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet12", "resnet50",
        "inception_v4", "vgg16")

needs_compiler = pytest.mark.skipif(
    _cext._compiler() is None, reason="no C compiler on this host")


def _c_packed(workload, mappings, tables):
    """The ``(ints, reals)`` the kernel receives from the C path on
    ``tables``, trimmed to the batch's stage count; the kernel itself
    does not run."""
    seen = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_cext, "solve_packed_c",
                            lambda ints, reals, *args: seen.append(
                                (ints.copy(), reals.copy())))
        solve_steady_state_batch(workload, mappings, tables)
    (ints, reals), = seen
    n_batch = len(mappings)
    n = int(ints[n_batch])
    n_ints, n_reals, _ = _cext.buffer_lengths(
        n_batch, n, len(workload), tables.platform.num_components)
    return ints[:n_ints], reals[:n_reals]


def _oracle_packed(workload, mappings, platform):
    sets = [compute_stage_demands(workload, m, platform) for m in mappings]
    _, ints, reals, _ = pack_demands(sets, len(workload),
                                     PlatformTables(platform))
    return ints, reals


def _assert_same_bytes(workload, mappings, tables):
    got = _c_packed(workload, mappings, tables)
    want = _oracle_packed(workload, mappings, tables.platform)
    for name, g, w in zip(("ints", "reals"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def _mappings(workload, platform, rng, seed):
    num_comp = platform.num_components
    search = MCTS(workload, num_comp, None, MCTSConfig(seed=seed))
    return [gpu_only_mapping(workload),
            random_partition_mapping(workload, num_comp, rng),
            uniform_block_mapping(workload, num_comp, rng),
            search._complete([]), search._complete([])]


@needs_compiler
class TestPacker:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(range(len(PLATFORMS))),
           st.lists(st.sampled_from(POOL), min_size=1, max_size=5),
           st.integers(0, 2**31 - 1), st.integers(1, 5))
    def test_c_pack_matches_oracle_pack(self, platform_index, names, seed,
                                        batch_size):
        """Each draw is packed cold, then reversed on the warm tables, so
        one table set serves the same model at several positions."""
        platform = PLATFORMS[platform_index]
        rng = np.random.default_rng(seed)
        tables = PlatformTables(platform)
        for order in (names, names[::-1]):
            workload = [get_model(n) for n in order]
            mappings = _mappings(workload, platform, rng, seed)
            picks = rng.integers(len(mappings), size=batch_size)
            _assert_same_bytes(workload, [mappings[i] for i in picks],
                               tables)

    def test_same_model_at_two_positions(self):
        names = ("resnet12", "alexnet", "resnet12")
        for platform in PLATFORMS:
            tables = PlatformTables(platform)
            for workload in ([get_model(n) for n in names],
                             [get_model(n) for n in names[1:]]):
                rng = np.random.default_rng(7)
                _assert_same_bytes(workload,
                                   _mappings(workload, platform, rng, 7),
                                   tables)

    def test_stage_sum_runs_left_to_right(self, monkeypatch):
        """Latencies ``[1.0, 1e-16, 1e-16]`` sum to exactly ``1.0`` left to
        right; compensated summation (the builtin ``sum`` of floats from
        Python 3.12) gives ``1.0000000000000002``."""
        model = (NetBuilder("sum_order", (3, 8, 8))
                 .block("a").conv(4, 3).block("b").conv(4, 3)
                 .block("c").conv(4, 3).build())
        monkeypatch.setattr(tables_module, "block_latencies",
                            lambda model, component: [1.0, 1e-16, 1e-16])
        platform = PLATFORMS[0]
        mapping = gpu_only_mapping([model])
        try:
            [demand] = compute_stage_demands([model], mapping, platform)
        finally:
            # The demands read the shared tables, which now hold the
            # patched latencies.
            tables_for.cache_clear()
        assert demand.seconds_per_inference == 1.0
        tables = PlatformTables(platform)
        _, reals = _c_packed([model], [mapping], tables)
        gamma = tables.gamma(1)[0, 1]
        assert reals[0] == 1.0 * gamma                       # inflated
        assert reals[1] == 1.0 / demand.num_kernels          # kernel time

    def test_model_tables_are_built_once_per_model(self):
        tables = PlatformTables(PLATFORMS[0])
        workload = [get_model(n) for n in ("alexnet", "resnet12")]
        rows, arena = tables.model_tables(workload)
        again, same = tables.model_tables([workload[1], workload[0],
                                           workload[1]])
        assert same is arena
        assert again == [rows[1], rows[0], rows[1]]


@needs_compiler
class TestBadInput:
    """Bad mappings stop before any C call; a non-positive demand stops
    between the packer and the kernel."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("pack_stages_c", "solve_packed_c"):
            monkeypatch.setattr(_cext, name,
                                lambda *args, name=name: calls.append(name))
        return calls

    WORKLOAD = [get_model(n) for n in ("alexnet", "resnet12")]

    def _fits(self):
        return gpu_only_mapping(self.WORKLOAD)

    @pytest.mark.parametrize("case, message", [
        ("component", "component index 3 out of range"),
        ("short", "assignments for"),
        ("long", "assignments for"),
        ("dnns", "mapping covers 1 DNNs"),
    ])
    def test_bad_mapping_raises_before_any_c_call(self, calls, case,
                                                  message):
        first, second = self._fits().assignments
        bad = {
            "component": (first, second[:-1] + (3,)),
            "short": (first, second[:-1]),
            "long": (first + (0,), second),
            "dnns": (first,),
        }[case]
        platform = PLATFORMS[0]
        with pytest.raises(ValueError, match=message):
            solve_steady_state_batch(self.WORKLOAD,
                                     [self._fits(), Mapping(bad)],
                                     tables_for(platform))
        assert calls == []

    def test_negative_component_raises_before_any_c_call(self, calls):
        """``Mapping`` refuses negative indices itself; one that got past
        it (here by skipping ``__post_init__``) still stops in Python."""
        first, second = self._fits().assignments
        bad = object.__new__(Mapping)
        object.__setattr__(bad, "assignments", (first, (-1,) + second[1:]))
        with pytest.raises(ValueError, match="out of range"):
            solve_steady_state_batch(self.WORKLOAD, [bad],
                                     tables_for(PLATFORMS[0]))
        assert calls == []

    @pytest.mark.parametrize("seconds", [0.0, -1e-3])
    def test_nonpositive_demand_raises_before_the_kernel(self, monkeypatch,
                                                         seconds):
        kernel_calls = []
        monkeypatch.setattr(_cext, "solve_packed_c",
                            lambda *args: kernel_calls.append(args))
        platform = PLATFORMS[0]
        tables = PlatformTables(platform)
        [(nb, offset), _], arena = tables.model_tables(self.WORKLOAD)
        arena[offset:offset + nb] = seconds    # every block on the GPU
        with pytest.raises(ValueError, match="must be positive"):
            solve_steady_state_batch(self.WORKLOAD, [self._fits()], tables)
        assert kernel_calls == []


@needs_compiler
def test_c_path_builds_no_stage_demand(monkeypatch):
    """With the kernel loaded, neither ``simulate_batch`` nor a cache miss
    calls ``compute_stage_demands`` or builds a ``StageDemand``."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a StageDemand was built on the C path")

    monkeypatch.setattr(engine, "compute_stage_demands", forbidden)
    monkeypatch.setattr(demands, "_stage_demand", forbidden)
    platform = PLATFORMS[0]
    workload = [get_model(n) for n in POOL[:4]]
    rng = np.random.default_rng(3)
    mappings = _mappings(workload, platform, rng, 3)
    assert len(simulate_batch(workload, mappings, platform)) == len(mappings)
    cache = EvaluationCache(platform)
    assert len(cache.simulate(workload, mappings)) == len(mappings)
    assert cache.misses == len(mappings)
