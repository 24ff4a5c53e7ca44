"""Multi-DNN mapping representation.

A mapping assigns every partitionable block of every DNN in the workload to
one computing component.  Maximal runs of consecutive blocks on the same
component form *pipeline stages* — the unit of execution, contention and
transfer cost.  This encoding spans exactly the paper's solution space:
``num_components ** total_blocks`` possibilities (Sec. IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..zoo.layers import ModelSpec

__all__ = ["Mapping", "Stage", "extract_stages", "gpu_only_mapping"]


class Stage(NamedTuple):
    """A maximal run of consecutive blocks of one DNN on one component.

    A named tuple, not a frozen dataclass: every evaluated mapping builds
    one per stage, and a tuple is about three times cheaper to make.
    """

    dnn_index: int
    component: int
    block_start: int  # inclusive
    block_end: int    # exclusive

    @property
    def num_blocks(self) -> int:
        return self.block_end - self.block_start


# ``Stage(...)`` runs a Python-level ``__new__``; the run splitter below
# builds the same tuples at C speed.
_new_stage = tuple.__new__


@dataclass(frozen=True)
class Mapping:
    """Per-DNN, per-block component assignment for a multi-DNN workload."""

    assignments: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("mapping must cover at least one DNN")
        for i, a in enumerate(self.assignments):
            if not a:
                raise ValueError(f"DNN {i} has an empty assignment")
            if min(a) < 0:
                raise ValueError(f"DNN {i} has a negative component index")

    @classmethod
    def from_lists(cls, assignments) -> "Mapping":
        return cls(tuple(tuple(int(c) for c in a) for a in assignments))

    # ------------------------------------------------------------------
    @property
    def num_dnns(self) -> int:
        return len(self.assignments)

    def components_used(self) -> set[int]:
        return {c for a in self.assignments for c in a}

    def validate_against(self, workload: list[ModelSpec],
                         num_components: int) -> None:
        """Raise ValueError unless this mapping fits ``workload``."""
        if len(self.assignments) != len(workload):
            raise ValueError(
                f"mapping covers {len(self.assignments)} DNNs, workload has "
                f"{len(workload)}"
            )
        for model, assignment in zip(workload, self.assignments):
            if len(assignment) != model.num_blocks:
                raise ValueError(
                    f"{model.name}: {len(assignment)} assignments for "
                    f"{model.num_blocks} blocks"
                )
            top = max(assignment)
            if top >= num_components:
                raise ValueError(
                    f"{model.name}: component index {top} out of range "
                    f"(platform has {num_components})"
                )

    def stages(self) -> list[Stage]:
        """All pipeline stages across the workload, in DNN-then-block order."""
        out: list[Stage] = []
        for i, assignment in enumerate(self.assignments):
            out.extend(extract_stages(i, assignment))
        return out

    def num_stages(self) -> int:
        return len(self.stages())

    def __repr__(self) -> str:
        body = "; ".join("".join(str(c) for c in a) for a in self.assignments)
        return f"Mapping({body})"


def extract_stages(dnn_index: int, assignment: tuple[int, ...]) -> list[Stage]:
    """Split a per-block assignment into maximal same-component runs."""
    if not assignment:
        return []
    stages: list[Stage] = []
    start, current = 0, assignment[0]
    for pos, comp in enumerate(assignment):
        if comp != current:
            stages.append(_new_stage(Stage, (dnn_index, current, start, pos)))
            start, current = pos, comp
    stages.append(_new_stage(Stage, (dnn_index, current, start,
                                     len(assignment))))
    return stages


def single_component_mapping(workload: list[ModelSpec],
                             component: int) -> Mapping:
    """Every DNN whole (unpartitioned) on one component."""
    return Mapping(tuple(
        tuple(component for _ in range(m.num_blocks)) for m in workload
    ))


def gpu_only_mapping(workload: list[ModelSpec], gpu_index: int = 0) -> Mapping:
    """The paper's baseline: every DNN whole on the GPU."""
    return single_component_mapping(workload, gpu_index)
