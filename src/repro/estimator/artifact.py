"""Trained-estimator artifact persistence.

The paper's operational pitch is that RankMap plans over a *learned*
throughput estimator (0.04 s per candidate evaluation) instead of
measuring candidates on the board.  For that path to be usable from the
serving stack — where every :class:`~repro.runner.DynamicScenario` worker
rebuilds its world from a few registry keys — the trained weights must be
a disk artifact a worker can load by path, exactly like the persisted
:class:`~repro.sim.EvaluationCache`.

An artifact bundles everything :class:`~repro.core.EstimatorPredictor`
needs: the :class:`~repro.estimator.EstimatorConfig` shapes, the trained
:class:`~repro.estimator.ThroughputEstimator` weights, the
:class:`~repro.vqvae.LayerVQVAE` (whose embeddings featurize the
Q tensors) with its quantizer codebooks, and the validation quality of
the training run.  The on-disk record mirrors the evaluation cache's
versioned persistence:

* a **format version** — only :data:`ARTIFACT_FORMAT_VERSION` (2,
  which carries the fine-tuning **lineage** block, see
  :class:`ArtifactLineage`) loads; any other version is refused.
* a **platform fingerprint** (:func:`repro.sim.cache.platform_fingerprint`)
  of the board the training rates were simulated on — an estimator
  trained against one board model must never score candidates for
  another.  A mismatch raises :class:`ArtifactPlatformMismatch`
  (a ``ValueError`` subclass) so callers that can fall back — the
  scenario runner downgrades to the oracle predictor with a warning,
  matching the ``cache_path`` behaviour — can distinguish it from a
  corrupt file, which raises a plain ``ValueError``.

An artifact path names exactly one file: the scenario runner loads the
file a spec names, and a fine-tuning pass
(:func:`repro.estimator.refresh_artifact`) writes its child to the path
it is given, never over its parent.

Writes go through a temp file and an atomic rename, so concurrent
readers (pool workers warming from one shared path) never observe a
half-written artifact.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..hw.platform import Platform
from ..sim.cache import dump_pickle_atomic, platform_fingerprint
from ..vqvae.model import LayerVQVAE
from ..vqvae.train import EmbeddingCache
from .model import EstimatorConfig, ThroughputEstimator

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactLineage",
    "ArtifactPlatformMismatch",
    "EstimatorArtifact",
    "save_estimator_artifact",
    "load_estimator_artifact",
]

#: On-disk artifact format version this build writes and reads; bump
#: when the payload layout changes.
ARTIFACT_FORMAT_VERSION = 2

#: Keys a well-formed ``lineage`` block may carry — anything else is
#: treated as corruption, not silently ignored.
_LINEAGE_KEYS = frozenset({"parent_hash", "segment_count", "finetune_epoch"})


class ArtifactPlatformMismatch(ValueError):
    """Raised when an artifact was trained for a different platform.

    Distinct from the plain ``ValueError`` a corrupt or unknown-format
    file raises, so callers with a sensible fallback (e.g. the scenario
    runner's downgrade to the oracle predictor) can catch exactly the
    recoverable case.
    """


@dataclass(frozen=True)
class ArtifactLineage:
    """Provenance of a (possibly fine-tuned) artifact.

    A freshly trained base artifact carries the default lineage:
    no parent, zero segments, fine-tune epoch 0.  Every
    :func:`~repro.estimator.finetune.refresh_artifact` pass writes a
    child whose lineage records the SHA-256 of the parent artifact
    file, how many distinct telemetry segments fed the pass, and the
    parent's fine-tune epoch plus one — so any artifact on disk can be
    traced back to the base weights it descended from.
    """

    parent_hash: str | None = None
    segment_count: int = 0
    finetune_epoch: int = 0


@dataclass
class EstimatorArtifact:
    """A loaded artifact: the rebuilt learned components plus metadata."""

    estimator: ThroughputEstimator
    vqvae: LayerVQVAE
    embedder: EmbeddingCache
    config: EstimatorConfig
    val_l2: float = float("nan")
    val_spearman: float = float("nan")
    lineage: ArtifactLineage = field(default_factory=ArtifactLineage)
    #: SHA-256 hex digest of the file bytes this artifact was loaded
    #: from (None when trained in memory): the ``parent_hash`` a
    #: fine-tuned child records, content-addressed, so renaming or moving
    #: the parent does not break the chain.
    file_hash: str | None = None


def _vqvae_hyperparams(vqvae: LayerVQVAE) -> dict:
    """Recover the constructor arguments of a trained VQ-VAE.

    Everything is readable off the instance: ``hidden`` from the first
    encoder convolution's output channels, the rest from stored
    attributes — so saving needs no side-channel of how the model was
    built.
    """
    return {
        "hidden": int(vqvae.encoder.layers[0].weight.data.shape[0]),
        "embed_dim": int(vqvae.embed_dim),
        "groups": int(vqvae.quantizer.groups),
        "stages": int(vqvae.quantizer.stages),
        "codebook_size": int(vqvae.quantizer.codebook_size),
        "commitment_beta": float(vqvae.commitment_beta),
    }


def save_estimator_artifact(path: str | Path,
                            estimator: ThroughputEstimator,
                            vqvae: LayerVQVAE,
                            platform: Platform,
                            val_l2: float = float("nan"),
                            val_spearman: float = float("nan"),
                            lineage: ArtifactLineage | None = None) -> Path:
    """Serialize a trained estimator + VQ-VAE to ``path``; returns it.

    The parent directory is created if needed; the write is atomic
    (temp file + rename).  ``platform`` stamps the artifact with the
    fingerprint of the board the training rates came from — loading for
    any other board refuses (see :func:`load_estimator_artifact`).
    ``lineage`` defaults to the base-artifact lineage; fine-tune passes
    supply the child's provenance instead.
    """
    lineage = lineage if lineage is not None else ArtifactLineage()
    return dump_pickle_atomic({
        "version": ARTIFACT_FORMAT_VERSION,
        "fingerprint": platform_fingerprint(platform),
        "platform_name": platform.name,
        "estimator_config": asdict(estimator.config),
        "estimator_arrays": estimator.state_arrays(),
        "vqvae_params": _vqvae_hyperparams(vqvae),
        "vqvae_arrays": vqvae.state_arrays(),
        "codebook_arrays": vqvae.quantizer.state_arrays(),
        "val_l2": float(val_l2),
        "val_spearman": float(val_spearman),
        "lineage": {
            "parent_hash": lineage.parent_hash,
            "segment_count": int(lineage.segment_count),
            "finetune_epoch": int(lineage.finetune_epoch),
        },
    }, path)


def _parse_lineage(payload: dict, path: Path) -> ArtifactLineage:
    """Validate and rebuild the lineage block of a loaded payload.

    The payload must carry a dict with exactly the known keys and
    well-typed values — anything else is corruption and raises a plain
    ``ValueError`` like every other malformed-payload case.
    """
    raw = payload.get("lineage")
    if not isinstance(raw, dict):
        raise ValueError(
            f"corrupt estimator artifact {path}: lineage is "
            f"{type(raw).__name__}, expected dict")
    unknown = sorted(set(raw) - _LINEAGE_KEYS)
    if unknown:
        raise ValueError(
            f"corrupt estimator artifact {path}: unknown lineage "
            f"field(s) {unknown}")
    parent_hash = raw.get("parent_hash")
    if parent_hash is not None and not isinstance(parent_hash, str):
        raise ValueError(
            f"corrupt estimator artifact {path}: lineage parent_hash is "
            f"{type(parent_hash).__name__}, expected str or None")
    segment_count = raw.get("segment_count", 0)
    finetune_epoch = raw.get("finetune_epoch", 0)
    for name, value in (("segment_count", segment_count),
                        ("finetune_epoch", finetune_epoch)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(
                f"corrupt estimator artifact {path}: lineage {name} is "
                f"{value!r}, expected a non-negative int")
    return ArtifactLineage(parent_hash=parent_hash,
                           segment_count=segment_count,
                           finetune_epoch=finetune_epoch)


def load_estimator_artifact(path: str | Path,
                            platform: Platform) -> EstimatorArtifact:
    """Rebuild the learned components from :func:`save_estimator_artifact`.

    Reads the file once; its ``file_hash`` is the SHA-256 of the bytes
    read.  Reads format version :data:`ARTIFACT_FORMAT_VERSION` only.  Raises
    :class:`ArtifactPlatformMismatch` when the artifact was trained for
    a platform with a different fingerprint, and a plain ``ValueError``
    (with the underlying cause chained) for a corrupt, truncated,
    unknown-format or malformed-lineage file — a broken artifact must
    fail loudly, never silently score with garbage weights.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        payload = pickle.loads(data)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError(
            f"corrupt estimator artifact {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"corrupt estimator artifact {path}: payload is "
            f"{type(payload).__name__}, expected dict")
    version = payload.get("version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ValueError(
            f"estimator artifact {path} has format version {version!r}; "
            f"this build reads version {ARTIFACT_FORMAT_VERSION}")
    lineage = _parse_lineage(payload, path)
    fingerprint = platform_fingerprint(platform)
    if payload.get("fingerprint") != fingerprint:
        raise ArtifactPlatformMismatch(
            f"estimator artifact {path} was trained for platform "
            f"{payload.get('platform_name')!r} (fingerprint "
            f"{payload.get('fingerprint')!r}); refusing to load it for "
            f"{platform.name!r} (fingerprint {fingerprint!r})")
    try:
        config = EstimatorConfig(**{
            k: tuple(v) if isinstance(v, list) else v
            for k, v in payload["estimator_config"].items()})
        estimator = ThroughputEstimator(np.random.default_rng(0), config)
        estimator.load_arrays(payload["estimator_arrays"])
        vqvae = LayerVQVAE(np.random.default_rng(0),
                           **payload["vqvae_params"])
        vqvae.load_arrays(payload["vqvae_arrays"])
        vqvae.quantizer.load_arrays(payload["codebook_arrays"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"corrupt estimator artifact {path}: {exc}") from exc
    vqvae.eval()
    estimator.eval()
    return EstimatorArtifact(
        estimator=estimator, vqvae=vqvae, embedder=EmbeddingCache(vqvae),
        config=config,
        val_l2=float(payload.get("val_l2", float("nan"))),
        val_spearman=float(payload.get("val_spearman", float("nan"))),
        lineage=lineage, file_hash=hashlib.sha256(data).hexdigest(),
    )
