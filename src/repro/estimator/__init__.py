"""Multi-task throughput estimator (Sec. IV-D): model, data, artifacts.

See ``docs/estimator.md`` for the end-to-end story: Q-tensor
featurization, the estimator architecture, training, the on-disk
artifact format and how the serving stack loads it.
"""

from .artifact import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactLineage,
    ArtifactPlatformMismatch,
    EstimatorArtifact,
    load_estimator_artifact,
    save_estimator_artifact,
)
from .dataset import EstimatorDataset, EstimatorSample, generate_dataset
from .finetune import (
    FinetuneBuffer,
    FinetuneConfig,
    FinetuneReport,
    finetune,
    refresh_artifact,
    segment_rows_to_samples,
)
from .metrics import l2_loss, spearman_r
from .model import EstimatorConfig, ThroughputEstimator
from .train import (
    EstimatorTrainConfig,
    TrainReport,
    evaluate_estimator,
    train_estimator,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactLineage",
    "ArtifactPlatformMismatch",
    "EstimatorArtifact",
    "load_estimator_artifact",
    "save_estimator_artifact",
    "FinetuneBuffer",
    "FinetuneConfig",
    "FinetuneReport",
    "finetune",
    "refresh_artifact",
    "segment_rows_to_samples",
    "EstimatorDataset",
    "EstimatorSample",
    "generate_dataset",
    "l2_loss",
    "spearman_r",
    "EstimatorConfig",
    "ThroughputEstimator",
    "EstimatorTrainConfig",
    "TrainReport",
    "evaluate_estimator",
    "train_estimator",
]
