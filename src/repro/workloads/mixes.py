"""Static multi-DNN mixes: the Sec. II study and the Sec. V random mixes."""

from __future__ import annotations

import numpy as np

from ..zoo.layers import ModelSpec
from ..zoo.registry import MODEL_POOL, get_model

__all__ = [
    "MOTIVATION_WORKLOAD",
    "motivation_workload",
    "sample_mix",
]

#: The Sec. II motivation workload: four diverse, widely used DNNs.
MOTIVATION_WORKLOAD: tuple[str, ...] = (
    "squeezenet_v2", "inception_v4", "resnet50", "vgg16",
)


def motivation_workload() -> list[ModelSpec]:
    """The paper's Sec. II workload (SqueezeNet-V2, Inception-V4, ResNet-50,
    VGG-16)."""
    return [get_model(name) for name in MOTIVATION_WORKLOAD]


def sample_mix(rng: np.random.Generator, size: int,
               pool: tuple[str, ...] = MODEL_POOL) -> list[ModelSpec]:
    """One random mix of ``size`` distinct pool models (Sec. V).

    Models are drawn without replacement, matching the paper's "mix of up
    to 5 concurrent DNNs randomly selected from a pool of 23 DNNs".
    """
    if not 1 <= size <= len(pool):
        raise ValueError(f"mix size {size} not in [1, {len(pool)}]")
    names = rng.choice(pool, size=size, replace=False)
    return [get_model(n) for n in names]
