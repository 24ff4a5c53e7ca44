"""Heterogeneous platform: an ordered set of components plus transfer links."""

from __future__ import annotations

from dataclasses import dataclass

from ..zoo.layers import ModelSpec
from .component import ComputeComponent
from .latency import solo_throughput
from .link import TransferLink

__all__ = ["Platform"]


@dataclass(frozen=True)
class Platform:
    """A heterogeneous embedded platform.

    Component order is the mapping alphabet: a mapping assigns each DNN
    block a component index into :attr:`components`.  By convention index 0
    is the GPU (the paper's baseline target).
    """

    name: str
    components: tuple[ComputeComponent, ...]
    link: TransferLink

    def __post_init__(self):
        if not self.components:
            raise ValueError("platform needs at least one component")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names: {names}")

    # ------------------------------------------------------------------
    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def gpu(self) -> ComputeComponent:
        """The highest-performing component (baseline target)."""
        return self.components[0]

    def component(self, index: int) -> ComputeComponent:
        return self.components[index]

    def ideal_throughput(self, model: ModelSpec) -> float:
        """Paper's t_ideal: the model alone and unpartitioned on the GPU."""
        return solo_throughput(model, self.gpu)

    def __repr__(self) -> str:
        names = ", ".join(c.name for c in self.components)
        return f"Platform({self.name!r}: {names})"
