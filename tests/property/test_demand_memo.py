"""Memoised stage demands against a memo-free reference.

:func:`repro.sim.compute_stage_demands` memoises each stage's demand in
the solving platform's :class:`~repro.sim.tables.PlatformTables`.  The
solver-equivalence suite feeds the same demands to the kernel and the
oracle, so it cannot see a wrong memo; this suite can.  The reference
below is the memo-free implementation the memo replaced, kept verbatim:
every memoised demand must carry the same stage, ``==`` seconds and the
same kernel count.

The draws cover both platform presets (whose components share the names
gpu/big/little), partition and fragmented mappings, stage lists that
split a same-component run (so a stage with and without a handoff can
share a block range), the same model at several DNN positions, and a
second pass over every mapping that must be served from the memo.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import jetson_class, orange_pi_5
from repro.hw.latency import block_latencies
from repro.mapping import (
    Mapping,
    Stage,
    random_partition_mapping,
    uniform_block_mapping,
)
from repro.mapping.mapping import gpu_only_mapping
from repro.sim import PlatformTables, StageDemand, compute_stage_demands
from repro.zoo import get_model

PLATFORMS = (orange_pi_5(), jetson_class())
POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet12", "resnet50")


def reference_stage_demands(workload, mapping, platform):
    """Demands for every stage of ``mapping`` over ``workload``."""
    mapping.validate_against(workload, platform.num_components)
    all_stages = mapping.stages()
    demands: list[StageDemand] = []
    per_comp_latencies = [
        [block_latencies(model, platform.component(c))
         for c in range(platform.num_components)]
        for model in workload
    ]
    for dnn_index, model in enumerate(workload):
        prev_comp: int | None = None
        for stage in (s for s in all_stages if s.dnn_index == dnn_index):
            latencies = per_comp_latencies[dnn_index][stage.component]
            seconds = sum(latencies[stage.block_start : stage.block_end])
            if prev_comp is not None and prev_comp != stage.component:
                handoff = model.blocks[stage.block_start].input_bytes
                seconds += platform.link.transfer_time(handoff)
            kernels = sum(
                len(model.blocks[b].layers)
                for b in range(stage.block_start, stage.block_end)
            )
            demands.append(StageDemand(stage, seconds, kernels))
            prev_comp = stage.component
    return demands


@dataclass(frozen=True)
class SplitRunMapping(Mapping):
    """A mapping whose stage list also cuts runs at ``cuts[dnn]`` blocks.

    ``Mapping.stages`` only emits maximal runs, so a stage after a cut
    sits on its predecessor's component and pays no handoff.
    """

    cuts: tuple[frozenset, ...] = ()

    def stages(self) -> list[Stage]:
        out = []
        for stage in super().stages():
            edges = sorted(c for c in self.cuts[stage.dnn_index]
                           if stage.block_start < c < stage.block_end)
            bounds = [stage.block_start, *edges, stage.block_end]
            out.extend(Stage(stage.dnn_index, stage.component, a, b)
                       for a, b in zip(bounds, bounds[1:]))
        return out


def _split(mapping: Mapping, rng) -> SplitRunMapping:
    cuts = tuple(frozenset(int(c) for c in rng.integers(1, len(a), size=2))
                 if len(a) > 1 else frozenset()
                 for a in mapping.assignments)
    return SplitRunMapping(mapping.assignments, cuts)


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.stage == w.stage
        assert g.seconds_per_inference == w.seconds_per_inference
        assert g.num_kernels == w.num_kernels


def _check(workload, mappings, tables):
    for mapping in mappings:
        for platform in PLATFORMS:
            _assert_same(
                compute_stage_demands(workload, mapping, platform,
                                      tables[platform.name]),
                reference_stage_demands(workload, mapping, platform))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(POOL), min_size=1, max_size=4),
       st.integers(0, 2**31 - 1))
def test_memoised_demands_match_reference(names, seed):
    """Draws may repeat a model, and each workload is also checked
    reversed, so one memo sees the same model at several positions."""
    rng = np.random.default_rng(seed)
    tables = {p.name: PlatformTables(p) for p in PLATFORMS}
    cases = []
    for order in (names, names[::-1]):
        workload = [get_model(n) for n in order]
        mappings = [gpu_only_mapping(workload)]
        for maker in (random_partition_mapping, uniform_block_mapping):
            mapping = maker(workload, 3, rng)
            mappings += [mapping, _split(mapping, rng)]
        cases.append((workload, mappings))
    for workload, mappings in cases:
        _check(workload, mappings, tables)
    sizes = {name: len(t.demands) for name, t in tables.items()}
    assert all(sizes.values())
    # A second pass is answered from the memo alone, and still matches.
    for workload, mappings in cases:
        _check(workload, mappings, tables)
    assert {name: len(t.demands) for name, t in tables.items()} == sizes


def test_handoff_is_part_of_the_key():
    """The same block range on the same component, once received over a
    handoff and once as the tail of a split run, in both orders."""
    workload = [get_model("alexnet")]
    blocks = workload[0].num_blocks
    handed = Mapping(((1,) * 3 + (0,) * (blocks - 3),))
    split = SplitRunMapping(((0,) * blocks,), (frozenset({3}),))
    for order in ((handed, split), (split, handed)):
        _check(workload, order, {p.name: PlatformTables(p)
                                 for p in PLATFORMS})


def test_same_model_at_two_positions():
    names = ("resnet12", "alexnet", "resnet12")
    workload = [get_model(n) for n in names]
    tables = {p.name: PlatformTables(p) for p in PLATFORMS}
    _check(workload, [gpu_only_mapping(workload)], tables)
    _check(workload[1:], [gpu_only_mapping(workload[1:])], tables)
