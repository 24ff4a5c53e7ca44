"""Estimator artifact persistence + the runner's predictor resolution.

Covers the satellite edge cases: save/load round-trips bit-exactly, a
platform-fingerprint mismatch downgrades a serving scenario to the
oracle with a warning (matching the ``cache_path`` behaviour), a
corrupt/truncated/missing artifact fails loudly instead of silently
serving the wrong study, and a spec's ``estimator_path`` names exactly
one file — nothing beside it is ever consulted.
"""

import dataclasses
import os
import pickle
import stat

import numpy as np
import pytest

from repro.estimator import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactLineage,
    ArtifactPlatformMismatch,
    EstimatorConfig,
    ThroughputEstimator,
    load_estimator_artifact,
    save_estimator_artifact,
)
from repro.hw import jetson_class, orange_pi_5
from repro.runner import (DynamicScenario, execute_dynamic_scenario,
                          resolve_predictor)
from repro.sim import EvaluationCache
from repro.vqvae import LayerVQVAE
from repro.zoo import get_model

SMALL_CFG = EstimatorConfig(max_dnns=4, max_layers=32, stem_channels=8,
                            block_channels=(8, 12, 16), attn_dim=8,
                            decoder_dim=12)

SMALL_POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")

DYNAMIC_FAST = dict(horizon_s=180.0, arrival_rate_per_s=1 / 30,
                    mean_session_s=100.0, pool=SMALL_POOL, capacity=2,
                    search_iterations=4, search_rollouts=2)


@pytest.fixture(scope="module")
def trained():
    """A (small) estimator + VQ-VAE pair, deterministic per session."""
    estimator = ThroughputEstimator(np.random.default_rng(1), SMALL_CFG)
    vqvae = LayerVQVAE(np.random.default_rng(0))
    return estimator, vqvae


@pytest.fixture()
def artifact_path(trained, tmp_path):
    """An artifact for the Orange Pi 5 board under a temp path."""
    estimator, vqvae = trained
    path = tmp_path / "estimator.pkl"
    save_estimator_artifact(path, estimator, vqvae, orange_pi_5(),
                            val_l2=0.25, val_spearman=0.9)
    return path


class TestArtifactRoundTrip:
    def test_predictions_bit_identical(self, trained, artifact_path):
        estimator, _ = trained
        loaded = load_estimator_artifact(artifact_path, orange_pi_5())
        q = np.random.default_rng(2).normal(
            size=(3, 4, 32, 48)).astype(np.float32)
        np.testing.assert_array_equal(loaded.estimator.predict_rates(q),
                                      estimator.predict_rates(q))
        assert loaded.config == SMALL_CFG

    def test_embeddings_bit_identical(self, trained, artifact_path):
        _, vqvae = trained
        loaded = load_estimator_artifact(artifact_path, orange_pi_5())
        model = get_model("resnet50")
        np.testing.assert_array_equal(loaded.vqvae.embed_model(model),
                                      vqvae.embed_model(model))

    def test_metadata_round_trips(self, artifact_path):
        loaded = load_estimator_artifact(artifact_path, orange_pi_5())
        assert loaded.val_l2 == pytest.approx(0.25)
        assert loaded.val_spearman == pytest.approx(0.9)

    def test_loaded_modules_in_eval_mode(self, artifact_path):
        loaded = load_estimator_artifact(artifact_path, orange_pi_5())
        assert not loaded.estimator.training
        assert not loaded.vqvae.training


class TestArtifactRefusals:
    def test_platform_mismatch_raises_distinct_error(self, artifact_path):
        with pytest.raises(ArtifactPlatformMismatch,
                           match="trained for platform 'orange_pi_5'"):
            load_estimator_artifact(artifact_path, jetson_class())

    def test_mismatch_is_a_value_error(self, artifact_path):
        # Callers without a fallback may catch the base class.
        with pytest.raises(ValueError):
            load_estimator_artifact(artifact_path, jetson_class())

    def test_corrupt_file_raises_clear_error(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"definitely not a pickle")
        with pytest.raises(ValueError, match="corrupt estimator artifact"):
            load_estimator_artifact(path, orange_pi_5())

    def test_truncated_file_raises_clear_error(self, artifact_path):
        artifact_path.write_bytes(artifact_path.read_bytes()[:64])
        with pytest.raises(ValueError, match="corrupt estimator artifact"):
            load_estimator_artifact(artifact_path, orange_pi_5())

    def test_unknown_format_version_refused(self, artifact_path):
        payload = pickle.loads(artifact_path.read_bytes())
        payload["version"] = ARTIFACT_FORMAT_VERSION + 1
        artifact_path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_estimator_artifact(artifact_path, orange_pi_5())

    def test_v1_payload_refused(self, artifact_path):
        """Only format version 2 loads: a pre-lineage v1 file is refused
        with the version message, not read with a default lineage."""
        payload = pickle.loads(artifact_path.read_bytes())
        payload["version"] = 1
        del payload["lineage"]
        artifact_path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="format version 1"):
            load_estimator_artifact(artifact_path, orange_pi_5())

    def test_wrong_payload_type_refused(self, tmp_path):
        path = tmp_path / "list.pkl"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="corrupt estimator artifact"):
            load_estimator_artifact(path, orange_pi_5())

    def test_missing_weight_arrays_refused(self, artifact_path):
        payload = pickle.loads(artifact_path.read_bytes())
        del payload["estimator_arrays"]
        artifact_path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="corrupt estimator artifact"):
            load_estimator_artifact(artifact_path, orange_pi_5())


class TestScenarioResolution:
    def test_mismatched_platform_downgrades_to_oracle_with_warning(
            self, artifact_path):
        """The cache_path analogue: an artifact trained for another board
        must not abort a heterogeneous sweep — the node serves on the
        oracle and says so."""
        spec = DynamicScenario(name="jet", manager="rankmap_d",
                               policy="warm", platform="jetson_class",
                               predictor="estimator",
                               estimator_path=str(artifact_path),
                               **DYNAMIC_FAST)
        with pytest.warns(UserWarning, match="downgrading to the oracle"):
            downgraded = execute_dynamic_scenario(spec)
        oracle = execute_dynamic_scenario(
            DynamicScenario(name="jet", manager="rankmap_d", policy="warm",
                            platform="jetson_class", **DYNAMIC_FAST))
        assert downgraded.report == oracle.report

    def test_corrupt_artifact_fails_scenario_loudly(self, tmp_path):
        path = tmp_path / "bad.pkl"
        path.write_bytes(b"nope")
        spec = DynamicScenario(name="x", manager="rankmap_d",
                               predictor="estimator",
                               estimator_path=str(path), **DYNAMIC_FAST)
        with pytest.raises(ValueError, match="corrupt estimator artifact"):
            execute_dynamic_scenario(spec)

    def test_missing_artifact_fails_scenario_loudly(self, tmp_path):
        spec = DynamicScenario(name="x", manager="rankmap_d",
                               predictor="estimator",
                               estimator_path=str(tmp_path / "nope.pkl"),
                               **DYNAMIC_FAST)
        with pytest.raises(FileNotFoundError):
            execute_dynamic_scenario(spec)

    def test_spec_loads_exactly_the_named_file(self, trained,
                                               artifact_path):
        """Files named like fine-tuned children are never consulted: a
        spec naming X.pkl scores with X's weights beside a differently
        weighted X.gen1.pkl and a corrupt X.gen2.pkl."""
        estimator, vqvae = trained
        sibling = ThroughputEstimator(np.random.default_rng(9), SMALL_CFG)
        save_estimator_artifact(artifact_path.with_name("estimator.gen1.pkl"),
                                sibling, vqvae, orange_pi_5())
        artifact_path.with_name("estimator.gen2.pkl").write_bytes(b"junk")
        spec = DynamicScenario(name="one", manager="rankmap_d",
                               predictor="estimator",
                               estimator_path=str(artifact_path),
                               **DYNAMIC_FAST)
        predictor = resolve_predictor(spec, orange_pi_5(),
                                      EvaluationCache(orange_pi_5()))
        q = np.random.default_rng(6).normal(
            size=(2, 4, 32, 48)).astype(np.float32)
        want = estimator.predict_rates(q)
        assert not np.array_equal(sibling.predict_rates(q), want)
        np.testing.assert_array_equal(predictor.estimator.predict_rates(q),
                                      want)

    def test_sweep_scores_with_the_context_artifacts(self, tmp_path,
                                                     monkeypatch):
        """The predictor a context's estimator sweep resolves scores
        exactly like ``ctx.artifacts``, even with a differently weighted
        ``.gen1`` sibling beside the context's artifact file."""
        import repro.runner.managers as managers
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path)
        base = ctx.estimator_artifact_path()
        sibling = ThroughputEstimator(np.random.default_rng(9),
                                      ctx.artifacts.config)
        save_estimator_artifact(base.with_name(f"{base.stem}.gen1.pkl"),
                                sibling, ctx.artifacts.vqvae, ctx.platform)
        resolved = []

        def spy(*args, **kwargs):
            resolved.append(resolve_predictor(*args, **kwargs))
            return resolved[-1]

        monkeypatch.setattr(managers, "resolve_predictor", spy)
        ctx.serve_sweep(policies=("full",), managers=("rankmap_d",),
                        traces_per_cell=1, horizon_s=120.0,
                        pool=SMALL_POOL, capacity=2,
                        predictor="estimator", max_workers=1)
        cfg = ctx.artifacts.config
        q = np.random.default_rng(6).normal(size=(
            2, cfg.max_dnns, cfg.max_layers, cfg.width)).astype(np.float32)
        want = ctx.artifacts.estimator.predict_rates(q)
        assert not np.array_equal(sibling.predict_rates(q), want)
        assert resolved
        for predictor in resolved:
            np.testing.assert_array_equal(
                predictor.estimator.predict_rates(q), want)

    def test_capacity_beyond_estimator_slots_rejected(self, artifact_path):
        spec = DynamicScenario(name="big", manager="rankmap_d",
                               predictor="estimator",
                               estimator_path=str(artifact_path),
                               horizon_s=180.0, arrival_rate_per_s=1 / 30,
                               mean_session_s=100.0, pool=SMALL_POOL,
                               capacity=5, search_iterations=4)
        with pytest.raises(ValueError, match="max_dnns"):
            execute_dynamic_scenario(spec)

    def test_renegotiate_overcommit_counts_against_slots(
            self, artifact_path):
        """capacity == max_dnns is fine without preemption but the
        renegotiate policy's one-slot overcommit pushes past it."""
        spec = DynamicScenario(name="over", manager="rankmap_d",
                               predictor="estimator",
                               estimator_path=str(artifact_path),
                               horizon_s=180.0, arrival_rate_per_s=1 / 30,
                               mean_session_s=100.0, pool=SMALL_POOL,
                               capacity=4, preemption="renegotiate",
                               search_iterations=4)
        with pytest.raises(ValueError, match="max_dnns"):
            execute_dynamic_scenario(spec)


class TestReviewRegressions:
    """Fixes from the PR's review pass, locked in."""

    def test_failed_save_leaves_no_temp_file(self, trained, tmp_path,
                                             monkeypatch):
        """A save that dies mid-dump must not orphan its temp file."""
        estimator, vqvae = trained

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pickle, "dump", boom)
        with pytest.raises(OSError, match="disk full"):
            save_estimator_artifact(tmp_path / "a.pkl", estimator, vqvae,
                                    orange_pi_5())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644),
                                             (0o077, 0o600)])
    def test_saved_pickles_follow_the_umask(self, trained, tmp_path,
                                            umask, mode):
        """Saved caches and artifacts get the permissions the umask
        leaves, like any other file the process writes."""
        estimator, vqvae = trained
        previous = os.umask(umask)
        try:
            cache = EvaluationCache(orange_pi_5())
            cache.save(tmp_path / "cache.pkl")
            save_estimator_artifact(tmp_path / "a.pkl", estimator, vqvae,
                                    orange_pi_5())
        finally:
            os.umask(previous)
        for name in ("cache.pkl", "a.pkl"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    def test_mismatch_memoised_but_still_warns_per_scenario(
            self, artifact_path):
        """The mismatch verdict is negatively memoised (no re-unpickle)
        per worker, but every downgraded scenario still says so."""
        spec = DynamicScenario(name="jet2", manager="rankmap_d",
                               platform="jetson_class",
                               predictor="estimator",
                               estimator_path=str(artifact_path),
                               **DYNAMIC_FAST)
        with pytest.warns(UserWarning, match="downgrading to the oracle"):
            execute_dynamic_scenario(spec)
        with pytest.warns(UserWarning, match="downgrading to the oracle"):
            execute_dynamic_scenario(spec)

    def test_serve_sweep_refuses_all_downgrade_platform(self, tmp_path):
        """predictor='estimator' on a platform the context did not train
        for is a config error, not a silently-oracle study."""
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        with pytest.raises(ValueError, match="downgrade every cell"):
            ctx.serve_sweep(policies=("full",), managers=("baseline",),
                            traces_per_cell=1, horizon_s=120.0,
                            pool=SMALL_POOL, platform="jetson_class",
                            predictor="estimator", max_workers=1)

    def test_fleet_serve_sweep_refuses_all_downgrade_platforms(
            self, tmp_path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        with pytest.raises(ValueError, match="every node"):
            ctx.fleet_serve_sweep(routings=("round_robin",), num_nodes=2,
                                  traces_per_cell=1, horizon_s=120.0,
                                  pool=SMALL_POOL,
                                  platforms=("jetson_class",),
                                  predictor="estimator", max_workers=1)

    def test_fleet_guard_checks_assigned_node_platforms(self, tmp_path):
        """A short fleet that never cycles to the matching platform entry
        must be refused even when the tuple *contains* it."""
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        with pytest.raises(ValueError, match="every node"):
            ctx.fleet_serve_sweep(
                routings=("round_robin",), num_nodes=1, traces_per_cell=1,
                horizon_s=120.0, pool=SMALL_POOL,
                platforms=("jetson_class", "orange_pi_5"),
                predictor="estimator", max_workers=1)

    def test_unknown_platform_refused_before_training(self, tmp_path):
        """A context whose platform is no runner preset is refused before
        its estimator is trained and saved for a sweep that cannot run."""
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(
            preset="tiny", results_dir=tmp_path,
            platform=dataclasses.replace(orange_pi_5(),
                                         name="bespoke_board"))
        with pytest.raises(ValueError, match="unknown platform"):
            ctx.serve_sweep(policies=("full",), managers=("baseline",),
                            traces_per_cell=1, horizon_s=120.0,
                            pool=SMALL_POOL, predictor="estimator",
                            max_workers=1)
        assert list(tmp_path.glob("estimator_*.pkl")) == []
        assert ctx._artifacts is None

    def test_stale_artifact_for_other_platform_is_retrained(self, tmp_path,
                                                            trained):
        """A results dir holding an artifact trained on another board must
        not be fanned out as this context's estimator — the path is
        platform-keyed and an existing file is validated before reuse."""
        from repro.experiments import ExperimentContext

        estimator, vqvae = trained
        ctx = ExperimentContext(preset="tiny", results_dir=tmp_path,
                                use_artifact_cache=False)
        # Plant a jetson-trained artifact exactly where the context will
        # look for its own.
        planted = (tmp_path /
                   f"estimator_tiny_{ctx.platform.name}.pkl")
        save_estimator_artifact(planted, estimator, vqvae, jetson_class())
        path = ctx.estimator_artifact_path()
        assert path == planted
        load_estimator_artifact(path, ctx.platform)  # no raise
        assert pickle.loads(path.read_bytes())["platform_name"] == \
            ctx.platform.name

    def test_component_count_mismatch_rejected_loudly(self, tmp_path,
                                                      trained):
        """An artifact featurizing a different component count than the
        node's platform must fail at resolve time with a clear error,
        not an IndexError mid-trace inside the Q scatter."""
        _, vqvae = trained
        cfg2 = EstimatorConfig(max_dnns=4, max_layers=32, num_components=2,
                               stem_channels=8, block_channels=(8, 12, 16),
                               attn_dim=8, decoder_dim=12)
        path = tmp_path / "two_comp.pkl"
        save_estimator_artifact(
            path, ThroughputEstimator(np.random.default_rng(1), cfg2),
            vqvae, orange_pi_5())
        spec = DynamicScenario(name="c", manager="rankmap_d",
                               predictor="estimator",
                               estimator_path=str(path), **DYNAMIC_FAST)
        with pytest.raises(ValueError, match="components"):
            execute_dynamic_scenario(spec)


class TestArtifactLineage:
    """The v2 format's provenance block (PR: closed-loop fine-tuning)."""

    def test_fresh_save_has_base_lineage(self, artifact_path):
        loaded = load_estimator_artifact(artifact_path, orange_pi_5())
        assert loaded.lineage == ArtifactLineage()
        assert loaded.lineage.parent_hash is None
        assert loaded.lineage.finetune_epoch == 0

    def test_lineage_round_trips(self, trained, tmp_path):
        estimator, vqvae = trained
        path = tmp_path / "child.pkl"
        lineage = ArtifactLineage(parent_hash="ab" * 32, segment_count=7,
                                  finetune_epoch=3)
        save_estimator_artifact(path, estimator, vqvae, orange_pi_5(),
                                lineage=lineage)
        assert load_estimator_artifact(path, orange_pi_5()).lineage == lineage

    def test_non_dict_lineage_refused(self, artifact_path):
        payload = pickle.loads(artifact_path.read_bytes())
        payload["lineage"] = ["not", "a", "dict"]
        artifact_path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="lineage is list"):
            load_estimator_artifact(artifact_path, orange_pi_5())

    def test_unknown_lineage_field_refused(self, artifact_path):
        payload = pickle.loads(artifact_path.read_bytes())
        payload["lineage"]["surprise"] = 1
        artifact_path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="unknown lineage field"):
            load_estimator_artifact(artifact_path, orange_pi_5())

    def test_mistyped_lineage_values_refused(self, artifact_path):
        payload = pickle.loads(artifact_path.read_bytes())
        payload["lineage"]["finetune_epoch"] = True
        artifact_path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="finetune_epoch"):
            load_estimator_artifact(artifact_path, orange_pi_5())

    def test_v2_platform_mismatch_still_distinct_error(self, trained,
                                                       tmp_path):
        """A fine-tuned (lineage-carrying) artifact for another board
        raises the recoverable mismatch subclass, not plain corruption."""
        estimator, vqvae = trained
        path = tmp_path / "ft.pkl"
        save_estimator_artifact(
            path, estimator, vqvae, jetson_class(),
            lineage=ArtifactLineage(parent_hash="cd" * 32,
                                    segment_count=2, finetune_epoch=1))
        with pytest.raises(ArtifactPlatformMismatch):
            load_estimator_artifact(path, orange_pi_5())
