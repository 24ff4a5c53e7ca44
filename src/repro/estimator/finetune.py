"""Online estimator fine-tuning from realized telemetry segments.

RankMap's estimator is trained once on *sampled* workloads, but the
paper's own methodology is measure-and-retrain: the traffic a deployment
actually serves drifts away from the sampling distribution, and the
estimator's accuracy — which OmniBoost shows *is* the serving quality —
drifts with it.  This module closes that loop (ROADMAP: closed-loop
adaptive control).  The observability layer already emits exactly the
training rows the estimator consumes: every
:func:`~repro.obs.export_segments` record is one realized
``(workload, mapping, rates)`` triple.

The pipeline is three pieces, each deterministic by construction:

* :class:`FinetuneBuffer` — ingests segment rows from any number of
  :class:`~repro.runner.DynamicResult` / fleet telemetry snapshots,
  dedups them by segment key, and bounds memory with a deterministic
  reservoir.  Its :meth:`~FinetuneBuffer.rows` output depends only on
  the *set* of segments seen, never on ingestion order or how many
  workers produced them — the property the test suite pins.
* :func:`finetune` — a warm-start training pass over the buffered rows,
  seeded and order-canonicalised so the same rows always yield
  bit-identical weights.
* :func:`refresh_artifact` — loads the artifact file it is given,
  fine-tunes it, and writes the child to the output path it is given
  (never over the parent) as a version-2 artifact whose
  :class:`~repro.estimator.ArtifactLineage` records the parent file
  hash, the segment count, and the parent's fine-tune epoch plus one.
  A scenario serves the refined weights once its ``estimator_path``
  names that output file.

Durations are merged with ``max`` (commutative and associative, so
order-invariant) and are *not* used as loss weights — a segment is one
observation of a mapping's realized rates regardless of how long it ran.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from ..autodiff import optim
from ..hw.platform import Platform
from ..mapping import Mapping
from .artifact import (
    ArtifactLineage,
    EstimatorArtifact,
    load_estimator_artifact,
    save_estimator_artifact,
)
from .dataset import EstimatorDataset, EstimatorSample
from .model import EstimatorConfig
from .train import train_epochs

__all__ = [
    "FinetuneBuffer",
    "FinetuneConfig",
    "FinetuneReport",
    "segment_rows_to_samples",
    "finetune",
    "refresh_artifact",
]

#: Segment-key type: (workload names, assignment rows, realized rates).
_SegmentKey = tuple[tuple[str, ...], tuple[tuple[int, ...], ...],
                    tuple[float, ...]]


def _segment_key(row: dict) -> tuple[_SegmentKey, float]:
    """Canonical ``(key, duration_s)`` of one
    :func:`~repro.obs.export_segments` row."""
    try:
        workload = row["workload"]
        assignments = row["assignments"]
        rates = row["rates"]
        duration = row["duration_s"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed segment row {row!r}") from exc
    key = (tuple(str(name) for name in workload),
           tuple(tuple(int(c) for c in assignment)
                 for assignment in assignments),
           tuple(float(rate) for rate in rates))
    if len(key[0]) != len(key[1]) or len(key[0]) != len(key[2]):
        raise ValueError(
            f"segment row has {len(key[0])} workload names, "
            f"{len(key[1])} assignment rows and {len(key[2])} rates; "
            f"all three must align")
    return key, float(duration)


def _key_digest(key: _SegmentKey) -> str:
    """Deterministic uniform tag of a segment key for reservoir sampling.

    SHA-256 over the canonical ``repr`` — stable across processes and
    Python hash randomization, unlike the builtin ``hash``.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class FinetuneBuffer:
    """An order-invariant, bounded pool of distinct telemetry segments.

    Ingest :func:`~repro.obs.export_segments` rows from any number of
    snapshots in any order; :meth:`rows` always returns the same
    key-sorted canonical rows for the same segment *set*.  When more
    than ``max_rows`` distinct segments arrive, the buffer keeps the
    ``max_rows`` keys with the smallest SHA-256 digests — a
    deterministic uniform subsample that is itself independent of
    arrival order, so two runs that observed the same traffic through
    different worker counts fine-tune on identical rows.
    """

    def __init__(self, max_rows: int = 4096):
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.max_rows = max_rows
        self._segments: dict[_SegmentKey, float] = {}
        self._seen = 0

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def seen(self) -> int:
        """Distinct segment keys ever ingested (kept or reservoir-dropped)."""
        return self._seen

    @property
    def dropped(self) -> int:
        """Distinct segments the reservoir bound has evicted."""
        return self._seen - len(self._segments)

    def ingest(self, rows: Iterable[dict]) -> int:
        """Add segment rows; returns how many were new distinct segments.

        Duplicate keys merge their ``duration_s`` with ``max`` — the
        recorder already accumulates per-snapshot, so a repeat of the
        same key across snapshots is the same segment observed again,
        not extra service time to sum (summing would make the merged
        value depend on how the trace was sharded across workers).
        """
        new = 0
        for row in rows:
            key, duration = _segment_key(row)
            if key in self._segments:
                self._segments[key] = max(self._segments[key], duration)
                continue
            self._seen += 1
            new += 1
            self._segments[key] = duration
            if len(self._segments) > self.max_rows:
                evict = max(self._segments, key=_key_digest)
                del self._segments[evict]
        return new

    def rows(self) -> list[dict]:
        """The buffered segments as canonical sorted plain-dict rows.

        Sorted by segment key, so the output is a pure function of the
        segment set — the contract :func:`finetune` relies on.
        """
        return [{
            "workload": list(key[0]),
            "assignments": [list(row) for row in key[1]],
            "rates": list(key[2]),
            "duration_s": self._segments[key],
        } for key in sorted(self._segments)]


@dataclass(frozen=True)
class FinetuneConfig:
    """Hyper-parameters for a warm-start fine-tuning pass.

    Deliberately gentler than :class:`~repro.estimator.EstimatorTrainConfig`:
    few epochs at a small constant learning rate, because the pass
    adjusts trained weights toward observed traffic rather than learning
    from scratch.
    """

    epochs: int = 4
    batch_size: int = 16
    lr: float = 2e-4
    channel_shuffle: bool = True
    seed: int = 0


@dataclass
class FinetuneReport:
    """What a fine-tuning pass consumed and how the loss moved."""

    rows: int = 0
    steps: int = 0
    train_loss: list[float] = field(default_factory=list)


def segment_rows_to_samples(rows: Iterable[dict],
                            config: EstimatorConfig
                            ) -> list[EstimatorSample]:
    """Canonicalise segment rows into sorted, deduped estimator samples.

    Validates each row against the estimator shapes: more DNNs than
    ``config.max_dnns`` cannot be featurized into a Q tensor and raises
    ``ValueError`` (unknown model names surface later as the zoo's
    ``KeyError`` when the batch is assembled).
    """
    keys: set[_SegmentKey] = set()
    for row in rows:
        key, _ = _segment_key(row)
        if len(key[0]) > config.max_dnns:
            raise ValueError(
                f"segment with {len(key[0])} DNNs exceeds the estimator's "
                f"max_dnns={config.max_dnns}; cannot featurize "
                f"{list(key[0])}")
        keys.add(key)
    return [EstimatorSample(names=key[0],
                            mapping=Mapping(key[1]),
                            rates=key[2])
            for key in sorted(keys)]


def finetune(artifact: EstimatorArtifact,
             rows: Iterable[dict],
             config: FinetuneConfig | None = None) -> FinetuneReport:
    """Warm-start-train ``artifact.estimator`` in place on segment rows.

    The rows are canonicalised (sorted, deduped) before batching and the
    batch order comes from a generator seeded by ``config.seed``, so the
    same segment set always produces bit-identical weights regardless of
    row order.  Zero rows is a no-op: the report shows 0 steps and the
    weights are untouched.  The estimator is left in ``eval`` mode.
    """
    config = config if config is not None else FinetuneConfig()
    samples = segment_rows_to_samples(rows, artifact.config)
    report = FinetuneReport(rows=len(samples))
    if not samples:
        return report
    dataset = EstimatorDataset(samples, artifact.config)
    model = artifact.estimator
    optimizer = optim.Adam(model.parameters(), lr=config.lr)
    try:
        report.train_loss = list(train_epochs(
            model, dataset, artifact.embedder, optimizer,
            np.random.default_rng(config.seed), config))
    finally:
        model.eval()
    report.steps = config.epochs * -(-len(dataset) // config.batch_size)
    return report


def refresh_artifact(parent_path: str | Path, out_path: str | Path,
                     rows: Iterable[dict], platform: Platform,
                     config: FinetuneConfig | None = None, *,
                     parent: EstimatorArtifact | None = None,
                     ) -> FinetuneReport:
    """Fine-tune the artifact at ``parent_path`` and write it to ``out_path``.

    Reads exactly ``parent_path`` once — or not at all when the caller
    passes what it already loaded from there as ``parent`` — runs
    :func:`finetune` on ``rows``, and writes exactly ``out_path`` as a v2
    artifact whose lineage records the SHA-256 of the parent bytes it
    trained from, the distinct-segment count, and the parent's fine-tune
    epoch plus one.  Returns the training report.

    ``out_path`` must not name the parent: a pool worker may be loading
    the parent's weights while the child is written, so a refresh never
    overwrites them.  A platform mismatch or corrupt parent raises here
    rather than falling back — fine-tuning the wrong board's weights
    would poison every later refresh, so the refresh path has no oracle
    downgrade.  The stored ``val_l2`` / ``val_spearman`` are carried
    over from the parent: they describe the base training run's
    held-out quality, not the fine-tuned weights.
    """
    parent_path, out_path = Path(parent_path), Path(out_path)
    if out_path.resolve() == parent_path.resolve():
        raise ValueError(
            f"refusing to overwrite the parent artifact {parent_path}; "
            "write the fine-tuned child to another path")
    artifact = (parent if parent is not None
                else load_estimator_artifact(parent_path, platform))
    report = finetune(artifact, rows, config)
    lineage = ArtifactLineage(
        parent_hash=artifact.file_hash, segment_count=report.rows,
        finetune_epoch=artifact.lineage.finetune_epoch + 1)
    save_estimator_artifact(out_path, artifact.estimator, artifact.vqvae,
                            platform, val_l2=artifact.val_l2,
                            val_spearman=artifact.val_spearman,
                            lineage=lineage)
    return report
