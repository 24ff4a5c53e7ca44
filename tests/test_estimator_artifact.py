"""Estimator artifact persistence + the runner's predictor resolution.

Covers the satellite edge cases: save/load round-trips bit-exactly, a
platform-fingerprint mismatch downgrades a serving scenario to the
oracle with a warning (matching the ``cache_path`` behaviour), and a
corrupt/truncated/missing artifact fails loudly instead of silently
serving the wrong study.
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
    artifact_generation_candidates,
    artifact_generation_path,
    latest_artifact_generation,
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
        assert loaded.platform_name == "orange_pi_5"
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
        loaded = load_estimator_artifact(path, ctx.platform)  # no raise
        assert loaded.platform_name == ctx.platform.name

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

    def test_v1_payload_loads_with_default_lineage(self, artifact_path):
        """Pre-lineage artifacts on disk stay readable."""
        payload = pickle.loads(artifact_path.read_bytes())
        payload["version"] = 1
        del payload["lineage"]
        artifact_path.write_bytes(pickle.dumps(payload))
        loaded = load_estimator_artifact(artifact_path, orange_pi_5())
        assert loaded.lineage == ArtifactLineage()

    def test_v1_and_v2_predictions_identical(self, trained, artifact_path,
                                             tmp_path):
        """The lineage block is pure metadata: downgrading the payload to
        v1 must not change a single predicted rate."""
        v2 = load_estimator_artifact(artifact_path, orange_pi_5())
        payload = pickle.loads(artifact_path.read_bytes())
        payload["version"] = 1
        del payload["lineage"]
        v1_path = tmp_path / "v1.pkl"
        v1_path.write_bytes(pickle.dumps(payload))
        v1 = load_estimator_artifact(v1_path, orange_pi_5())
        q = np.random.default_rng(5).normal(
            size=(2, 4, 32, 48)).astype(np.float32)
        np.testing.assert_array_equal(v1.estimator.predict_rates(q),
                                      v2.estimator.predict_rates(q))

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


class TestGenerationFamily:
    """Path arithmetic for fine-tuned artifact generations."""

    def test_generation_path_naming(self, tmp_path):
        base = tmp_path / "estimator.pkl"
        assert artifact_generation_path(base, 1).name == "estimator.gen1.pkl"
        assert artifact_generation_path(base, 12).name == "estimator.gen12.pkl"

    def test_generation_path_rejects_generation_bases(self, tmp_path):
        with pytest.raises(ValueError, match="family base"):
            artifact_generation_path(tmp_path / "estimator.gen1.pkl", 2)

    def test_generation_zero_is_the_base(self, tmp_path):
        with pytest.raises(ValueError, match=">= 1"):
            artifact_generation_path(tmp_path / "estimator.pkl", 0)

    def test_candidates_newest_first_base_last(self, artifact_path):
        for n in (1, 3):
            artifact_generation_path(artifact_path, n).write_bytes(b"x")
        names = [p.name for p in
                 artifact_generation_candidates(artifact_path)]
        assert names == ["estimator.gen3.pkl", "estimator.gen1.pkl",
                         "estimator.pkl"]

    def test_pinned_generation_is_exact(self, artifact_path):
        pinned = artifact_generation_path(artifact_path, 2)
        assert artifact_generation_candidates(pinned) == [pinned]

    def test_unrelated_siblings_ignored(self, artifact_path):
        (artifact_path.parent / "other.gen5.pkl").write_bytes(b"x")
        (artifact_path.parent / "estimator.gen2.txt").write_bytes(b"x")
        assert artifact_generation_candidates(artifact_path) == \
            [artifact_path]

    def test_latest_generation_number(self, artifact_path):
        assert latest_artifact_generation(artifact_path) == 0
        artifact_generation_path(artifact_path, 4).write_bytes(b"x")
        assert latest_artifact_generation(artifact_path) == 4


class TestGenerationResolutionPreference:
    """resolve_predictor walks the family newest-first (closed loop)."""

    def _spec(self, path, platform="orange_pi_5"):
        return DynamicScenario(name="gen", manager="rankmap_d",
                               policy="warm", platform=platform,
                               predictor="estimator",
                               estimator_path=str(path), **DYNAMIC_FAST)

    def _newer(self, trained, artifact_path, platform):
        """A gen1 sibling with *different* weights than the base."""
        _, vqvae = trained
        newer = ThroughputEstimator(np.random.default_rng(9), SMALL_CFG)
        save_estimator_artifact(
            artifact_generation_path(artifact_path, 1), newer, vqvae,
            platform)
        return newer

    def test_newest_compatible_generation_wins(self, trained,
                                               artifact_path):
        newer = self._newer(trained, artifact_path, orange_pi_5())
        predictor = resolve_predictor(self._spec(artifact_path),
                                      orange_pi_5(),
                                      EvaluationCache(orange_pi_5()))
        q = np.random.default_rng(6).normal(
            size=(2, 4, 32, 48)).astype(np.float32)
        np.testing.assert_array_equal(predictor.estimator.predict_rates(q),
                                      newer.predict_rates(q))

    def test_naming_a_generation_pins_it(self, trained, artifact_path):
        self._newer(trained, artifact_path, orange_pi_5())
        pinned = artifact_generation_path(artifact_path, 1)
        # Add a newer generation that must NOT be picked up.
        _, vqvae = trained
        save_estimator_artifact(
            artifact_generation_path(artifact_path, 2),
            ThroughputEstimator(np.random.default_rng(11), SMALL_CFG),
            vqvae, orange_pi_5())
        predictor = resolve_predictor(self._spec(pinned), orange_pi_5(),
                                      EvaluationCache(orange_pi_5()))
        expected = load_estimator_artifact(pinned, orange_pi_5())
        q = np.random.default_rng(6).normal(
            size=(2, 4, 32, 48)).astype(np.float32)
        np.testing.assert_array_equal(
            predictor.estimator.predict_rates(q),
            expected.estimator.predict_rates(q))

    def test_mismatched_generation_falls_back_to_base(self, trained,
                                                      artifact_path,
                                                      recwarn):
        """A child fine-tuned for another board must not shadow a
        compatible base — and the fallback is silent (no downgrade)."""
        self._newer(trained, artifact_path, jetson_class())
        base = load_estimator_artifact(artifact_path, orange_pi_5())
        predictor = resolve_predictor(self._spec(artifact_path),
                                      orange_pi_5(),
                                      EvaluationCache(orange_pi_5()))
        q = np.random.default_rng(6).normal(
            size=(2, 4, 32, 48)).astype(np.float32)
        np.testing.assert_array_equal(predictor.estimator.predict_rates(q),
                                      base.estimator.predict_rates(q))
        assert not [w for w in recwarn
                    if "downgrading" in str(w.message)]

    def test_every_candidate_mismatching_downgrades(self, trained,
                                                    tmp_path):
        """Only when the whole family is foreign does the scenario
        downgrade to the oracle (with the warning naming the newest)."""
        estimator, vqvae = trained
        base = tmp_path / "estimator.pkl"
        save_estimator_artifact(base, estimator, vqvae, jetson_class())
        save_estimator_artifact(artifact_generation_path(base, 1),
                                estimator, vqvae, jetson_class())
        with pytest.warns(UserWarning, match="downgrading to the oracle"):
            predictor = resolve_predictor(self._spec(base), orange_pi_5(),
                                          EvaluationCache(orange_pi_5()))
        assert not hasattr(predictor, "estimator")  # oracle, not learned

    def test_corrupt_generation_blocks_family(self, artifact_path):
        """A corrupt *newer* generation must fail loudly rather than
        silently serve the stale base weights."""
        artifact_generation_path(artifact_path, 1).write_bytes(b"junk")
        with pytest.raises(ValueError, match="corrupt estimator artifact"):
            resolve_predictor(self._spec(artifact_path), orange_pi_5(),
                              EvaluationCache(orange_pi_5()))
