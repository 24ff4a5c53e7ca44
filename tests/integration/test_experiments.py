"""Integration tests: every experiment runs end-to-end on the tiny preset.

These verify the full pipeline (zoo -> hw -> sim -> vqvae -> estimator ->
search -> managers -> experiment harness) wires together; statistical
fidelity is covered by the fast-preset runs recorded in EXPERIMENTS.md and
by the sharper targeted tests elsewhere in the suite.
"""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    results = tmp_path_factory.mktemp("results")
    return ExperimentContext(preset="tiny", results_dir=results,
                             use_artifact_cache=False)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_runs_and_saves(ctx, name):
    result = run_experiment(name, ctx)
    assert result.rows, name
    assert result.text
    assert (ctx.results_dir / f"{result.experiment}.csv").exists()
    assert (ctx.results_dir / f"{result.experiment}.txt").exists()


def test_unknown_experiment_rejected(ctx):
    with pytest.raises(KeyError, match="available"):
        run_experiment("fig99", ctx)


def test_mix_study_memoised(ctx):
    from repro.experiments.mix_study import run_mix_study

    first = run_mix_study(ctx)
    second = run_mix_study(ctx)
    assert first is second


def test_artifact_cache_roundtrip(tmp_path):
    ctx1 = ExperimentContext(preset="tiny", results_dir=tmp_path,
                             use_artifact_cache=True)
    a1 = ctx1.artifacts
    assert (tmp_path / "estimator_tiny_orange_pi_5.pkl").exists()

    ctx2 = ExperimentContext(preset="tiny", results_dir=tmp_path,
                             use_artifact_cache=True)
    a2 = ctx2.artifacts
    # Loaded estimator must produce identical predictions.
    q = np.zeros((1, a1.estimator.config.max_dnns,
                  a1.estimator.config.max_layers,
                  a1.estimator.config.width), np.float32)
    np.testing.assert_allclose(a1.estimator.predict_log_rates(q),
                               a2.estimator.predict_log_rates(q),
                               rtol=1e-5)
    assert a2.val_l2 == pytest.approx(a1.val_l2)
    # The cache is the artifact sweeps fan out: no second file is written.
    assert ctx2.estimator_artifact_path() \
        == tmp_path / "estimator_tiny_orange_pi_5.pkl"
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["estimator_tiny_orange_pi_5.pkl"]


def test_cli_main_runs(tmp_path, capsys):
    from repro.experiments.__main__ import main

    code = main(["table1", "--preset", "tiny",
                 "--results", str(tmp_path), "--no-cache"])
    assert code == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "priority_aware" in out
