"""Mapping representation, random generators, Q tensors, space accounting."""

from .mapping import (
    Mapping,
    Stage,
    extract_stages,
    gpu_only_mapping,
    single_component_mapping,
)
from .qtensor import build_q_tensor_batch
from .random_map import random_partition_mapping, uniform_block_mapping
from .space import log10_solution_space, solution_space_size

__all__ = [
    "Mapping",
    "Stage",
    "extract_stages",
    "gpu_only_mapping",
    "single_component_mapping",
    "random_partition_mapping",
    "uniform_block_mapping",
    "build_q_tensor_batch",
    "solution_space_size",
    "log10_solution_space",
]
