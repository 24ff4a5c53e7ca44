"""Unit tests for the estimator fine-tuning loop (repro.estimator.finetune).

Covers the deterministic ingestion buffer (dedup, max-merge, bounded
reservoir), the warm-start ``finetune`` pass, the ``refresh_artifact``
parent → child → grandchild lineage chain, the ``ExperimentContext``
wiring and the offline CLI.  The bit-identity *properties* (ingestion
order, worker count) live in
``tests/property/test_finetune_properties.py``.
"""

import builtins
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.estimator import (
    ArtifactLineage,
    EstimatorConfig,
    FinetuneBuffer,
    FinetuneConfig,
    ThroughputEstimator,
    finetune,
    load_estimator_artifact,
    refresh_artifact,
    save_estimator_artifact,
    segment_rows_to_samples,
)
from repro.hw import jetson_class, orange_pi_5
from repro.obs import TelemetrySnapshot, write_trace
from repro.obs.recorder import SegmentUsage
from repro.vqvae import LayerVQVAE
from repro.zoo import get_model

REPO_ROOT = Path(__file__).resolve().parents[1]

TINY_CFG = EstimatorConfig(max_dnns=4, stem_channels=4,
                           block_channels=(4, 4, 4), attn_dim=4,
                           decoder_dim=8)

FAST_FT = FinetuneConfig(epochs=1, batch_size=4)


def artifact_hash(path):
    """SHA-256 hex digest of the file bytes at ``path``."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def seg(names, rate=1.0, duration=5.0):
    """A synthetic export_segments row over real zoo models."""
    return {
        "workload": list(names),
        "assignments": [[0] * get_model(n).num_blocks for n in names],
        "rates": [float(rate)] * len(names),
        "duration_s": float(duration),
    }


@pytest.fixture()
def base_artifact(tmp_path):
    """A tiny base artifact for the Orange Pi 5 under a temp dir."""
    estimator = ThroughputEstimator(np.random.default_rng(3), TINY_CFG)
    vqvae = LayerVQVAE(np.random.default_rng(4))
    path = tmp_path / "estimator.pkl"
    save_estimator_artifact(path, estimator, vqvae, orange_pi_5(),
                            val_l2=0.5, val_spearman=0.8)
    return path


class TestFinetuneBuffer:
    def test_ingest_counts_new_distinct_segments(self):
        buf = FinetuneBuffer()
        assert buf.ingest([seg(("alexnet",)), seg(("squeezenet",))]) == 2
        assert buf.ingest([seg(("alexnet",))]) == 0
        assert len(buf) == 2 and buf.seen == 2 and buf.dropped == 0

    def test_duplicate_durations_merge_with_max(self):
        buf = FinetuneBuffer()
        buf.ingest([seg(("alexnet",), duration=3.0)])
        buf.ingest([seg(("alexnet",), duration=9.0)])
        buf.ingest([seg(("alexnet",), duration=5.0)])
        (row,) = buf.rows()
        assert row["duration_s"] == 9.0

    def test_rows_sorted_and_order_invariant(self):
        rows = [seg(("mobilenet_v2",)), seg(("alexnet",)),
                seg(("squeezenet", "alexnet"), rate=2.0)]
        forward, backward = FinetuneBuffer(), FinetuneBuffer()
        forward.ingest(rows)
        backward.ingest(reversed(rows))
        assert forward.rows() == backward.rows()
        workloads = [tuple(r["workload"]) for r in forward.rows()]
        assert workloads == sorted(workloads)

    def test_reservoir_bound_is_order_independent(self):
        rows = [seg((name,)) for name in
                ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")]
        forward, backward = FinetuneBuffer(max_rows=2), FinetuneBuffer(max_rows=2)
        forward.ingest(rows)
        backward.ingest(reversed(rows))
        assert len(forward) == 2
        assert forward.dropped == 2 and forward.seen == 4
        assert forward.rows() == backward.rows()

    def test_malformed_row_raises(self):
        with pytest.raises(ValueError, match="malformed segment row"):
            FinetuneBuffer().ingest([{"workload": ["alexnet"]}])

    def test_misaligned_row_raises(self):
        bad = seg(("alexnet", "squeezenet"))
        bad["rates"] = [1.0]
        with pytest.raises(ValueError, match="must align"):
            FinetuneBuffer().ingest([bad])

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="max_rows"):
            FinetuneBuffer(max_rows=0)


class TestSegmentRowsToSamples:
    def test_dedup_and_sort(self):
        rows = [seg(("squeezenet",)), seg(("alexnet",)),
                seg(("squeezenet",))]
        samples = segment_rows_to_samples(rows, TINY_CFG)
        assert [s.names for s in samples] == [("alexnet",), ("squeezenet",)]

    def test_oversized_workload_rejected(self):
        row = seg(("alexnet", "squeezenet", "mobilenet_v2", "shufflenet",
                   "resnet50"))
        with pytest.raises(ValueError, match="max_dnns"):
            segment_rows_to_samples([row], TINY_CFG)


class TestFinetune:
    def test_zero_rows_is_a_noop(self, base_artifact):
        artifact = load_estimator_artifact(base_artifact, orange_pi_5())
        before = [a.copy() for a in artifact.estimator.state_arrays()]
        report = finetune(artifact, [], FAST_FT)
        assert report.rows == 0 and report.steps == 0
        for a, b in zip(before, artifact.estimator.state_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_rows_move_the_weights(self, base_artifact):
        artifact = load_estimator_artifact(base_artifact, orange_pi_5())
        before = [a.copy() for a in artifact.estimator.state_arrays()]
        report = finetune(artifact, [seg(("alexnet",)),
                                     seg(("squeezenet",), rate=2.0)],
                          FAST_FT)
        assert report.rows == 2 and report.steps >= 1
        assert len(report.train_loss) == FAST_FT.epochs
        assert any(not np.array_equal(a, b) for a, b in
                   zip(before, artifact.estimator.state_arrays()))
        assert not artifact.estimator.training  # left in eval mode


class TestRefreshArtifact:
    def test_missing_family_raises(self, tmp_path):
        out = tmp_path / "child.pkl"
        with pytest.raises(FileNotFoundError):
            refresh_artifact(tmp_path / "nope.pkl", out, [seg(("alexnet",))],
                             orange_pi_5(), FAST_FT)
        assert not out.exists()

    def test_writes_generation_with_lineage(self, base_artifact, tmp_path):
        parent_hash = artifact_hash(base_artifact)
        out = tmp_path / "child.pkl"
        report = refresh_artifact(
            base_artifact, out, [seg(("alexnet",)), seg(("squeezenet",))],
            orange_pi_5(), FAST_FT)
        # Exactly the named file is written; the parent is untouched.
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["child.pkl", "estimator.pkl"]
        assert artifact_hash(base_artifact) == parent_hash
        child = load_estimator_artifact(out, orange_pi_5())
        assert child.lineage == ArtifactLineage(
            parent_hash=parent_hash, segment_count=2, finetune_epoch=1)
        assert report.rows == 2
        # Base validation quality is carried over, not recomputed.
        assert child.val_l2 == pytest.approx(0.5)
        assert child.val_spearman == pytest.approx(0.8)

    def test_generations_chain(self, base_artifact, tmp_path):
        """parent → child → grandchild: each lineage names the file it
        was refined from and counts one more fine-tune epoch."""
        child, grandchild = tmp_path / "child.pkl", tmp_path / "grand.pkl"
        refresh_artifact(base_artifact, child, [seg(("alexnet",))],
                         orange_pi_5(), FAST_FT)
        refresh_artifact(child, grandchild, [seg(("squeezenet",))],
                         orange_pi_5(), FAST_FT)
        for path, parent, epoch in ((child, base_artifact, 1),
                                    (grandchild, child, 2)):
            lineage = load_estimator_artifact(path, orange_pi_5()).lineage
            assert lineage == ArtifactLineage(
                parent_hash=artifact_hash(parent), segment_count=1,
                finetune_epoch=epoch)

    def test_reads_the_parent_once(self, base_artifact, tmp_path,
                                   monkeypatch):
        """The parent's bytes are read once, then hashed and unpickled, so
        the lineage names the bytes the child was trained from even when
        the parent path is rewritten during the fine-tune."""
        before = artifact_hash(base_artifact)
        reads = _count_reads(monkeypatch, base_artifact)
        finetune_module = importlib.import_module("repro.estimator.finetune")
        real_finetune = finetune_module.finetune

        def rewrite_parent_then_finetune(*args, **kwargs):
            base_artifact.write_bytes(b"rewritten")
            return real_finetune(*args, **kwargs)

        monkeypatch.setattr(finetune_module, "finetune",
                            rewrite_parent_then_finetune)
        out = tmp_path / "child.pkl"
        refresh_artifact(base_artifact, out, [seg(("alexnet",))],
                         orange_pi_5(), FAST_FT)
        assert reads == ["rb"]
        child = load_estimator_artifact(out, orange_pi_5())
        assert child.lineage.parent_hash == before

    def test_platform_mismatch_raises_not_downgrades(self, base_artifact,
                                                     tmp_path):
        """Fine-tuning the wrong board's weights would poison every later
        refresh — the refresh path has no oracle fallback."""
        out = tmp_path / "child.pkl"
        with pytest.raises(ValueError, match="trained for platform"):
            refresh_artifact(base_artifact, out, [seg(("alexnet",))],
                             jetson_class(), FAST_FT)
        assert not out.exists()

    def test_refuses_to_overwrite_parent(self, base_artifact, tmp_path):
        """A worker may be loading the parent's weights, so a refresh
        never writes over them — however the same path is spelled."""
        (tmp_path / "sub").mkdir()
        before = base_artifact.read_bytes()
        for out in (base_artifact, tmp_path / "sub" / ".." / "estimator.pkl"):
            with pytest.raises(ValueError, match="overwrite the parent"):
                refresh_artifact(base_artifact, out, [seg(("alexnet",))],
                                 orange_pi_5(), FAST_FT)
        assert base_artifact.read_bytes() == before


def _load_cli():
    spec = importlib.util.spec_from_file_location(
        "finetune_estimator", REPO_ROOT / "tools" / "finetune_estimator.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_with_segments(path, rows):
    snapshot = TelemetrySnapshot(
        where="test", max_spans=64, counters=(), gauges=(), histograms=(),
        spans=(), span_stats=(),
        segments=tuple(SegmentUsage(tuple(r["workload"]),
                                    tuple(tuple(a) for a in r["assignments"]),
                                    tuple(r["rates"]), r["duration_s"])
                       for r in rows))
    write_trace(snapshot, path)
    return path


class TestFinetuneCLI:
    def test_refreshes_a_generation_from_traces(self, base_artifact,
                                                tmp_path, capsys):
        cli = _load_cli()
        trace = _trace_with_segments(tmp_path / "trace.jsonl",
                                     [seg(("alexnet",)),
                                      seg(("squeezenet",), rate=2.0)])
        out = tmp_path / "refined.pkl"
        status = cli.main([str(base_artifact), str(out), str(trace),
                           "--platform", "orange_pi_5", "--epochs", "1",
                           "--batch-size", "4"])
        assert status == 0
        lineage = load_estimator_artifact(out, orange_pi_5()).lineage
        assert lineage.parent_hash == artifact_hash(base_artifact)
        assert lineage.finetune_epoch == 1
        assert "fine-tune epoch 1" in capsys.readouterr().out

    def test_empty_traces_fail_with_message(self, base_artifact, tmp_path,
                                            capsys):
        cli = _load_cli()
        trace = _trace_with_segments(tmp_path / "empty.jsonl", [])
        out = tmp_path / "refined.pkl"
        status = cli.main([str(base_artifact), str(out), str(trace)])
        assert status == 1
        assert "no segments" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_trace_fails_cleanly(self, base_artifact, tmp_path,
                                         capsys):
        """Unparseable JSON and a schema-valid trace whose segment lacks
        its ``rates`` both end in ``error:`` and exit 1, no traceback."""
        cli = _load_cli()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        no_rates = _trace_with_segments(tmp_path / "no_rates.jsonl",
                                        [seg(("alexnet",))])
        header, record = no_rates.read_text().splitlines()
        record = json.loads(record)
        del record["rates"]
        no_rates.write_text(f"{header}\n{json.dumps(record)}\n")
        out = tmp_path / "refined.pkl"
        for trace in (bad, no_rates):
            status = cli.main([str(base_artifact), str(out), str(trace)])
            assert status == 1
            assert "error:" in capsys.readouterr().err
        assert not out.exists()


class _Observed:
    """A sweep result whose telemetry holds one alexnet segment."""

    telemetry = TelemetrySnapshot(
        where="test", max_spans=64, counters=(), gauges=(), histograms=(),
        spans=(), span_stats=(),
        segments=(SegmentUsage(("alexnet",),
                               ((0,) * get_model("alexnet").num_blocks,),
                               (1.0,), 5.0),))


def _count_reads(monkeypatch, path):
    """Record the mode of every read-mode open of ``path``."""
    reads = []
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(path) and "r" in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return reads


class TestContextRefresh:
    def test_refresh_reads_the_parent_once(self, base_artifact, tmp_path,
                                           monkeypatch):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path / "ctx")
        parent = ctx._artifact_file()
        parent.parent.mkdir()
        parent.write_bytes(base_artifact.read_bytes())
        reads = _count_reads(monkeypatch, parent)
        out = tmp_path / "refined.pkl"
        report = ctx.refresh_estimator([_Observed()], out, FAST_FT)
        assert reads == ["rb"]
        assert report.rows == 1
        lineage = load_estimator_artifact(out, orange_pi_5()).lineage
        assert lineage.parent_hash == artifact_hash(parent)

    def test_refresh_retrains_an_invalid_parent(self, base_artifact,
                                                tmp_path, monkeypatch):
        """A corrupt parent file is retrained and saved before the
        refresh, which then records the new file's bytes."""
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path / "ctx")
        parent = ctx._artifact_file()
        parent.parent.mkdir()
        parent.write_bytes(b"corrupt")
        trained = load_estimator_artifact(base_artifact, orange_pi_5())
        monkeypatch.setattr(ExperimentContext, "_train_artifacts",
                            lambda self: trained)
        out = tmp_path / "refined.pkl"
        ctx.refresh_estimator([_Observed()], out, FAST_FT)
        load_estimator_artifact(parent, orange_pi_5())
        lineage = load_estimator_artifact(out, orange_pi_5()).lineage
        assert lineage.parent_hash == artifact_hash(parent)

    def test_refresh_estimator_requires_telemetry(self, tmp_path):
        from repro.experiments import ExperimentContext

        class Blind:
            telemetry = None

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        with pytest.raises(ValueError, match="observe=True"):
            ctx.refresh_estimator([Blind()], tmp_path / "refined.pkl")
