"""Unit tests for the throughput estimator: model, dataset, training."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.autodiff import Tensor, nn, optim
from repro.estimator import (
    EstimatorConfig,
    EstimatorDataset,
    EstimatorTrainConfig,
    ThroughputEstimator,
    evaluate_estimator,
    generate_dataset,
    l2_loss,
    spearman_r,
    train_estimator,
)
from repro.estimator.train import _masked_mse, train_epochs
from repro.hw import orange_pi_5
from repro.vqvae import EmbeddingCache, LayerVQVAE

PLATFORM = orange_pi_5()
SMALL_CFG = EstimatorConfig(max_dnns=3, max_layers=32, stem_channels=8,
                            block_channels=(8, 12, 16), attn_dim=8,
                            decoder_dim=12)


def small_model(seed=1):
    return ThroughputEstimator(np.random.default_rng(seed), SMALL_CFG)


def small_dataset(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return generate_dataset(PLATFORM, rng, n, SMALL_CFG,
                            pool=("alexnet", "squeezenet_v2", "mobilenet"))


def embedder():
    return EmbeddingCache(LayerVQVAE(np.random.default_rng(0)))


class TestModel:
    def test_forward_shape(self):
        model = small_model()
        q = np.zeros((4, 3, 32, 48), np.float32)
        out = model.predict_log_rates(q)
        assert out.shape == (4, 3)

    def test_forward_rejects_wrong_shape(self):
        from repro.autodiff import Tensor

        q = np.zeros((2, 3, 16, 48), np.float32)
        with pytest.raises(ValueError):
            small_model()(Tensor(q))
        with pytest.raises(ValueError, match="expected Q of shape"):
            small_model().predict_log_rates(q)

    def test_predict_rates_nonnegative(self):
        model = small_model()
        q = np.random.default_rng(0).normal(size=(2, 3, 32, 48)).astype(np.float32)
        assert (model.predict_rates(q) >= 0).all()

    def test_uses_float32(self):
        model = small_model()
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_parameter_count_reasonable(self):
        # The full-size default is a width-scaled version of the paper's
        # 3.7M-parameter network.
        full = ThroughputEstimator(np.random.default_rng(0))
        assert 50_000 < sum(p.size for p in full.parameters()) < 1_000_000

    def test_prediction_depends_on_placement(self):
        model = small_model()
        q0 = np.zeros((1, 3, 32, 48), np.float32)
        q1 = np.zeros((1, 3, 32, 48), np.float32)
        q0[0, 0, :10, 0:16] = 1.0   # layers on component 0
        q1[0, 0, :10, 32:48] = 1.0  # same layers on component 2
        assert not np.allclose(model.predict_log_rates(q0),
                               model.predict_log_rates(q1))

    def test_eval_mode_restored_after_predict(self):
        model = small_model()
        model.train()
        model.predict_log_rates(np.zeros((1, 3, 32, 48), np.float32))
        assert model.training


class TestDataset:
    def test_generate_respects_pool_and_size(self):
        ds = small_dataset(n=8)
        assert len(ds) == 8
        for s in ds.samples:
            assert 1 <= len(s.names) <= 3
            assert all(n in ("alexnet", "squeezenet_v2", "mobilenet")
                       for n in s.names)
            assert len(s.rates) == len(s.names)
            assert all(r > 0 for r in s.rates)

    def test_no_duplicate_models_in_sample(self):
        ds = small_dataset(n=20)
        for s in ds.samples:
            assert len(set(s.names)) == len(s.names)

    def test_split_disjoint_and_complete(self):
        ds = small_dataset(n=10)
        train, val = ds.split(0.3, np.random.default_rng(0))
        assert len(train) + len(val) == 10
        assert len(val) == 3

    def test_split_validates_fraction(self):
        ds = small_dataset(n=4)
        with pytest.raises(ValueError):
            ds.split(0.0, np.random.default_rng(0))

    def test_build_batch_shapes_and_mask(self):
        ds = small_dataset(n=6)
        q, y, mask = ds.build_batch([0, 1, 2], embedder())
        assert q.shape == (3, 3, 32, 48)
        assert y.shape == mask.shape == (3, 3)
        for row, idx in enumerate([0, 1, 2]):
            k = len(ds.samples[idx].names)
            assert mask[row, :k].all() and not mask[row, k:].any()
            np.testing.assert_allclose(
                y[row, :k], np.log1p(ds.samples[idx].rates), rtol=1e-6
            )

    def test_min_dnns_validated(self):
        with pytest.raises(ValueError):
            generate_dataset(PLATFORM, np.random.default_rng(0), 2,
                             SMALL_CFG, min_dnns=9)


class TestMetrics:
    def test_l2_loss_basic(self):
        assert l2_loss([1.0, 2.0], [1.0, 4.0]) == pytest.approx(2.0)

    def test_l2_loss_masked(self):
        loss = l2_loss([1.0, 100.0], [1.0, 0.0], mask=[1.0, 0.0])
        assert loss == 0.0

    def test_l2_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            l2_loss([1.0], [1.0], mask=[0.0])

    def test_spearman_monotone(self):
        assert spearman_r([1, 2, 3, 4], [10, 20, 40, 80]) == pytest.approx(1.0)

    def test_spearman_constant_is_zero(self):
        assert spearman_r([1, 1, 1], [1, 2, 3]) == 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_spearman_matches_scipy_oracle(self, seed):
        """The numpy average-rank version against ``scipy.stats.spearmanr``
        on continuous, heavily tied and mixed inputs."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        draws = (lambda: rng.normal(size=n),
                 lambda: rng.integers(0, 4, n).astype(float),
                 lambda: rng.integers(0, n, n).astype(float))
        pred = draws[seed % 3]()
        target = draws[(seed // 3) % 3]()
        if np.allclose(pred, pred[0]) or np.allclose(target, target[0]):
            want = 0.0
        else:
            want = stats.spearmanr(pred, target).statistic
        assert abs(spearman_r(pred, target) - want) <= 1e-12

    def test_spearman_ties_use_average_ranks(self):
        pred = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        target = [6.0, 5.0, 5.0, 1.0, 2.0, 2.0]
        want = stats.spearmanr(pred, target).statistic
        assert abs(spearman_r(pred, target) - want) <= 1e-12

    @pytest.mark.parametrize("pred, target", [
        ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0]),
        ([1.0, 1.0 + 1e-12, 1.0], [1.0, 2.0, 3.0]),
        ([1.0, np.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, np.nan, 1.0]),
        ([np.nan, np.nan, np.nan], [1.0, 2.0, 3.0]),
    ])
    def test_spearman_degenerate_is_zero(self, pred, target):
        assert spearman_r(pred, target) == 0.0

    def test_import_repro_leaves_scipy_unloaded(self):
        """``import repro`` must not pay for scipy (about a second)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; "
             "print(sorted(m for m in sys.modules if m == 'scipy' "
             "or m.startswith('scipy.')))"],
            capture_output=True, text=True, env=env, timeout=120)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"

    def test_no_scipy_import_under_src(self):
        src = Path(__file__).resolve().parents[1] / "src"
        offenders = [str(path.relative_to(src))
                     for path in sorted(src.rglob("*.py"))
                     if any(line.lstrip().startswith(("import scipy",
                                                      "from scipy"))
                            for line in path.read_text().splitlines())]
        assert offenders == []


class TestTraining:
    def test_loss_decreases(self):
        ds = small_dataset(n=24, seed=3)
        model = small_model()
        report = train_estimator(
            model, ds, embedder(),
            EstimatorTrainConfig(epochs=4, batch_size=8, val_fraction=0.2),
        )
        assert report.train_loss[-1] < report.train_loss[0]
        assert len(report.val_loss) == 4
        assert np.isfinite(report.final_val_loss)

    def test_channel_shuffle_preserves_pairing(self):
        from repro.estimator.train import _shuffle_channels

        rng = np.random.default_rng(0)
        q = np.arange(2 * 3 * 4 * 6, dtype=np.float64).reshape(2, 3, 4, 6)
        y = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        q0, y0 = q.copy(), y.copy()
        _shuffle_channels(q, y, mask, rng)
        # Each (channel, target) pair must stay together.
        for row in range(2):
            for c in range(3):
                orig = int(np.where(y0[row] == y[row, c])[0][0])
                np.testing.assert_array_equal(q[row, c], q0[row, orig])

    def test_evaluate_returns_finite(self):
        ds = small_dataset(n=8)
        l2, rho = evaluate_estimator(small_model(), ds, embedder())
        assert np.isfinite(l2)
        assert -1.0 <= rho <= 1.0


def _tape(root: Tensor) -> list[Tensor]:
    """Every tensor recorded under ``root`` before its backward pass."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestFloat32Training:
    """The float32 estimator trains in float32: no Python constant
    promotes its activations, and backward frees the tape it consumes."""

    def test_training_step_stays_float32(self):
        model = ThroughputEstimator(np.random.default_rng(1))
        cfg = model.config
        g = np.random.default_rng(0)
        q = g.normal(size=(2, cfg.max_dnns, cfg.max_layers,
                           cfg.width)).astype(np.float32)
        y = g.uniform(0.0, 4.0, size=(2, cfg.max_dnns)).astype(np.float32)
        mask = np.ones((2, cfg.max_dnns), np.float32)
        optimizer = optim.Adam(model.parameters())
        loss = _masked_mse(model(Tensor(q)), y, mask)
        tape = _tape(loss)
        assert len(tape) > 100
        assert {node.dtype for node in tape} == {np.dtype(np.float32)}
        loss.backward()
        optim.clip_grad_norm(model.parameters(), optim.GRAD_CLIP_NORM)
        optimizer.step()
        assert {p.grad.dtype for p in model.parameters()} == \
            {np.dtype(np.float32)}
        assert {p.dtype for p in model.parameters()} == {np.dtype(np.float32)}
        running = [getattr(m, key) for m in model.modules()
                   if isinstance(m, nn.BatchNorm2d)
                   for key in ("running_mean", "running_var")]
        assert len(running) == 14
        assert {a.dtype for a in running} == {np.dtype(np.float32)}

    def test_training_step_memory_peak(self):
        """One default-config 24-sample step peaks near 120 MB under
        tracemalloc; a float64 promotion or a tape kept alive through
        backward each push it past the 160 MB bound."""
        model = ThroughputEstimator(np.random.default_rng(1))
        dataset = generate_dataset(PLATFORM, np.random.default_rng(2), 24)
        config = EstimatorTrainConfig(epochs=1, batch_size=24)
        optimizer = optim.Adam(model.parameters(), lr=config.lr)
        embeddings = embedder()

        def step():
            losses = train_epochs(model, dataset, embeddings, optimizer,
                                  np.random.default_rng(0), config)
            assert np.isfinite(list(losses)).all()

        step()      # warm-up: Adam's moments, the embedding cache
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 160 * 2**20, f"peak {peak / 2**20:.1f} MB"
