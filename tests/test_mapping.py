"""Unit tests for the mapping representation and generators."""

import numpy as np
import pytest

from repro.mapping import (
    Mapping,
    extract_stages,
    gpu_only_mapping,
    random_partition_mapping,
    uniform_block_mapping,
)
from repro.zoo import get_model


def workload():
    return [get_model("alexnet"), get_model("squeezenet_v2")]


class TestMapping:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Mapping(())
        with pytest.raises(ValueError):
            Mapping(((),))

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            Mapping(((0, -1),))

    def test_components_used(self):
        m = Mapping(((0, 0, 2), (1,)))
        assert m.components_used() == {0, 1, 2}

    def test_validate_against_workload(self):
        wl = workload()
        good = gpu_only_mapping(wl)
        good.validate_against(wl, 3)

    def test_validate_wrong_dnn_count(self):
        wl = workload()
        with pytest.raises(ValueError, match="covers"):
            Mapping(((0,),)).validate_against(wl, 3)

    def test_validate_wrong_block_count(self):
        wl = workload()
        bad = Mapping(((0,) * 5, (0,) * wl[1].num_blocks))
        with pytest.raises(ValueError, match="assignments for"):
            bad.validate_against(wl, 3)

    def test_validate_component_out_of_range(self):
        wl = workload()
        bad = Mapping((
            tuple([5] * wl[0].num_blocks),
            tuple([0] * wl[1].num_blocks),
        ))
        with pytest.raises(ValueError, match="out of range"):
            bad.validate_against(wl, 3)

    def test_repr_compact(self):
        assert "001" in repr(Mapping(((0, 0, 1),)))


class TestStages:
    def test_single_run(self):
        stages = extract_stages(0, (1, 1, 1))
        assert len(stages) == 1
        assert stages[0].component == 1
        assert (stages[0].block_start, stages[0].block_end) == (0, 3)
        assert stages[0].num_blocks == 3

    def test_alternating_runs(self):
        stages = extract_stages(0, (0, 1, 0))
        assert [(s.component, s.block_start, s.block_end) for s in stages] == [
            (0, 0, 1), (1, 1, 2), (0, 2, 3),
        ]

    def test_runs_merge(self):
        stages = extract_stages(2, (2, 2, 1, 1, 1))
        assert len(stages) == 2
        assert stages[0].dnn_index == 2

    def test_mapping_stages_cover_all_blocks(self):
        m = Mapping(((0, 1, 1), (2, 2)))
        total = sum(s.num_blocks for s in m.stages())
        assert total == 5
        assert len(m.stages()) == 3

    def test_gpu_only_single_stage_per_dnn(self):
        wl = workload()
        m = gpu_only_mapping(wl)
        stages = m.stages()
        assert len(stages) == 2
        assert all(s.component == 0 for s in stages)


class TestRandomGenerators:
    def test_partition_mapping_valid(self):
        wl = workload()
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_partition_mapping(wl, 3, rng)
            m.validate_against(wl, 3)

    def test_partition_mapping_respects_max_stages(self):
        wl = workload()
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_partition_mapping(wl, 3, rng, max_stages=2)
            for i in range(len(wl)):
                runs = extract_stages(i, m.assignments[i])
                assert len(runs) <= 2

    def test_partition_mapping_diverse(self):
        wl = workload()
        rng = np.random.default_rng(3)
        seen = {random_partition_mapping(wl, 3, rng).assignments
                for _ in range(30)}
        assert len(seen) > 20

    def test_uniform_mapping_valid_and_diverse(self):
        wl = workload()
        rng = np.random.default_rng(3)
        maps = [uniform_block_mapping(wl, 3, rng) for _ in range(20)]
        for m in maps:
            m.validate_against(wl, 3)
        assert len({m.assignments for m in maps}) == 20

    def test_zero_components_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_partition_mapping(workload(), 0, rng)
        with pytest.raises(ValueError):
            uniform_block_mapping(workload(), 0, rng)

    def test_deterministic_under_seed(self):
        wl = workload()
        a = random_partition_mapping(wl, 3, np.random.default_rng(9))
        b = random_partition_mapping(wl, 3, np.random.default_rng(9))
        assert a.assignments == b.assignments
