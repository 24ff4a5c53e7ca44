"""Mapping representation, random generators and Q tensors."""

from .mapping import (
    Mapping,
    Stage,
    extract_stages,
    gpu_only_mapping,
    single_component_mapping,
)
from .qtensor import build_q_tensor_batch
from .random_map import random_partition_mapping, uniform_block_mapping

__all__ = [
    "Mapping",
    "Stage",
    "extract_stages",
    "gpu_only_mapping",
    "single_component_mapping",
    "random_partition_mapping",
    "uniform_block_mapping",
    "build_q_tensor_batch",
]
