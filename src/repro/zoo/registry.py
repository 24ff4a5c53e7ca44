"""Model registry: the paper's 23-DNN training pool plus Fig. 8's extra model.

``MODEL_POOL`` is exactly the pool of Sec. V used to build the estimator's
training workloads.  ``get_model`` memoises builds — model specs are
immutable in practice, so sharing one instance per name is safe and keeps
workload generation fast.
"""

from __future__ import annotations

import functools
from typing import Callable

from .layers import ModelSpec
from .models import classic, densenet, detection, inception, mobile, resnet

__all__ = ["MODEL_BUILDERS", "MODEL_POOL", "ALL_MODELS", "get_model",
           "pool_models"]

#: Model name -> builder; :func:`get_model` builds and memoises.
MODEL_BUILDERS: dict[str, Callable[[], ModelSpec]] = {
    "alexnet": classic.alexnet,
    "densenet121": densenet.densenet121,
    "densenet169": densenet.densenet169,
    "efficientnet_b0": mobile.efficientnet_b0,
    "efficientnet_b1": mobile.efficientnet_b1,
    "efficientnet_b2": mobile.efficientnet_b2,
    "googlenet": inception.googlenet,
    "inception_resnet_v2": inception.inception_resnet_v2,
    "inception_v3": inception.inception_v3,
    "inception_v4": inception.inception_v4,
    "mobilenet": mobile.mobilenet,
    "mobilenet_v2": mobile.mobilenet_v2,
    "resnet12": resnet.resnet12,
    "resnet50": resnet.resnet50,
    "resnet50_v2": resnet.resnet50_v2,
    "resnext50": resnet.resnext50,
    "shufflenet": mobile.shufflenet,
    "squeezenet": mobile.squeezenet,
    "squeezenet_v2": mobile.squeezenet_v2,
    "ssd_mobilenet": detection.ssd_mobilenet,
    "yolo_v3": detection.yolo_v3,
    "vgg16": classic.vgg16,
    "vgg19": classic.vgg19,
    # Not in the training pool; used by the paper's Fig. 8 dynamic scenario.
    "inception_resnet_v1": inception.inception_resnet_v1,
}

#: The paper's 23-model estimator-training pool (Sec. V).
MODEL_POOL: tuple[str, ...] = tuple(
    name for name in sorted(MODEL_BUILDERS) if name != "inception_resnet_v1"
)

#: Every model this zoo can build.
ALL_MODELS: tuple[str, ...] = tuple(sorted(MODEL_BUILDERS))


@functools.lru_cache(maxsize=None)
def get_model(name: str) -> ModelSpec:
    """Build (once) and return the named model spec."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(ALL_MODELS)}"
        ) from None
    return builder()


def pool_models() -> list[ModelSpec]:
    """Build the full 23-model training pool."""
    return [get_model(name) for name in MODEL_POOL]
