"""DNN model zoo: the paper's 23-model pool, layer IR, and Eq. 1 vectors."""

from .builder import NetBuilder
from .layers import Activation, BlockSpec, LayerSpec, LayerType, ModelSpec
from .registry import ALL_MODELS, MODEL_POOL, get_model, pool_models
from .vectorize import (
    LAYER_VECTOR_DIM,
    normalize_features,
    vectorize_layer,
    vectorize_model,
)

__all__ = [
    "NetBuilder",
    "Activation",
    "BlockSpec",
    "LayerSpec",
    "LayerType",
    "ModelSpec",
    "ALL_MODELS",
    "MODEL_POOL",
    "get_model",
    "pool_models",
    "LAYER_VECTOR_DIM",
    "normalize_features",
    "vectorize_layer",
    "vectorize_model",
]
