"""Property tests: the estimator's folded float32 inference path against
its oracle, the autodiff training forward.

``ThroughputEstimator.predict_log_rates`` folds every batch norm into the
conv before it and runs channels-last float32 numpy kernels; the autodiff
``forward`` (eval mode, no tape) computes the same function, promoted to
float64 after the first batch norm.  The contract:

* log1p-rates within ``atol=1e-4`` of the oracle, over default, small
  and short configs with randomised batch norms and open attention
  gates, on random and zoo-roster Q tensors;
* the same argmax and the same disqualified set over candidate rosters
  scored by an estimator trained here;
* ``num_dnns=k`` is exactly the first ``k`` columns of the full output;
* the fold is recomputed on every call, so predictions after an
  optimizer step equal those of a fresh estimator loaded with the
  stepped arrays, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, no_grad, optim
from repro.core import EstimatorPredictor, RankMap, RankMapConfig
from repro.estimator import (
    EstimatorConfig,
    EstimatorTrainConfig,
    ThroughputEstimator,
    generate_dataset,
    train_estimator,
)
from repro.estimator.train import train_epochs
from repro.hw import orange_pi_5
from repro.mapping import (
    build_q_tensor_batch,
    random_partition_mapping,
    uniform_block_mapping,
)
from repro.search.reward import DISQUALIFIED
from repro.vqvae import EmbeddingCache, LayerVQVAE
from repro.zoo import get_model

ATOL = 1e-4

PLATFORM = orange_pi_5()
POOL = ("alexnet", "squeezenet_v2", "mobilenet", "resnet50")
_EMBEDDER = EmbeddingCache(LayerVQVAE(np.random.default_rng(0)))

SMALL_CFG = EstimatorConfig(max_dnns=5, max_layers=48, stem_channels=8,
                            block_channels=(8, 12, 16), attn_dim=8,
                            decoder_dim=12)
CONFIGS = {"default": EstimatorConfig(), "small": SMALL_CFG,
           "short": EstimatorConfig(max_layers=32)}


def oracle_log_rates(model: ThroughputEstimator, q: np.ndarray) -> np.ndarray:
    """The autodiff forward in eval mode without a tape."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model.forward(Tensor(q)).data
    finally:
        if was_training:
            model.train()


def randomised(config: EstimatorConfig, seed: int) -> ThroughputEstimator:
    """An estimator with randomised batch-norm statistics and affine
    parameters and open attention gates (trained gates are ~0.002, these
    ~0.1), so every folded term matters."""
    rng = np.random.default_rng(seed)
    model = ThroughputEstimator(np.random.default_rng(seed + 1), config)
    for module in model.modules():
        if hasattr(module, "running_mean"):
            c = module.running_mean.shape
            module.running_mean = rng.normal(0.0, 0.5, c)
            module.running_var = rng.uniform(0.2, 3.0, c)
            module.gamma.data[:] = rng.uniform(0.8, 1.2, c)
            module.beta.data[:] = rng.normal(0.0, 0.1, c)
        if hasattr(module, "gate"):
            module.gate.data[:] = rng.normal(0.0, 0.1)
    return model


def q_batch(config: EstimatorConfig, seed: int, batch: int) -> np.ndarray:
    shape = (batch, config.max_dnns, config.max_layers, config.width)
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def zoo_q_batch(config: EstimatorConfig, seed: int, batch: int) -> np.ndarray:
    """Q tensors of candidate mappings of a random zoo workload."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, min(len(POOL), config.max_dnns) + 1))
    workload = [get_model(n) for n in rng.choice(POOL, size, replace=False)]
    mappings = [(random_partition_mapping if i % 2 else uniform_block_mapping)(
        workload, config.num_components, rng) for i in range(batch)]
    return build_q_tensor_batch(workload, mappings,
                                _EMBEDDER.for_workload(workload),
                                config.num_components, config.max_dnns,
                                config.max_layers).astype(np.float32)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_within_tolerance_of_autodiff_forward(name, seed):
    config = CONFIGS[name]
    model = randomised(config, seed)
    q = q_batch(config, seed + 100, 3)
    got = model.predict_log_rates(q)
    assert got.dtype == np.float64 and got.shape == (3, config.max_dnns)
    np.testing.assert_allclose(got, oracle_log_rates(model, q), rtol=0,
                               atol=ATOL)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_within_tolerance_on_zoo_rosters(seed, batch):
    model = randomised(SMALL_CFG, seed % 1000)
    q = zoo_q_batch(SMALL_CFG, seed, batch)
    np.testing.assert_allclose(model.predict_log_rates(q),
                               oracle_log_rates(model, q), rtol=0, atol=ATOL)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_num_dnns_is_a_prefix_of_the_full_output(seed, k):
    model = randomised(SMALL_CFG, seed % 1000)
    q = q_batch(SMALL_CFG, seed, 2)
    full = model.predict_log_rates(q)
    np.testing.assert_array_equal(model.predict_log_rates(q, num_dnns=k),
                                  full[:, :k])
    np.testing.assert_array_equal(model.predict_rates(q, num_dnns=k),
                                  model.predict_rates(q)[:, :k])


@pytest.mark.parametrize("k", [0, -1, SMALL_CFG.max_dnns + 1])
def test_num_dnns_out_of_range_rejected(k):
    model = ThroughputEstimator(np.random.default_rng(0), SMALL_CFG)
    with pytest.raises(ValueError, match="num_dnns"):
        model.predict_log_rates(q_batch(SMALL_CFG, 0, 1), num_dnns=k)


@pytest.fixture(scope="module")
def trained():
    """A small estimator trained here, and its dataset."""
    config = EstimatorConfig(max_dnns=4, max_layers=48, stem_channels=8,
                             block_channels=(8, 12, 16), attn_dim=8,
                             decoder_dim=12)
    model = ThroughputEstimator(np.random.default_rng(1), config)
    dataset = generate_dataset(PLATFORM, np.random.default_rng(2), 40,
                               config, pool=POOL)
    train_estimator(model, dataset, _EMBEDDER,
                    EstimatorTrainConfig(epochs=3, batch_size=8))
    return model, dataset


@pytest.mark.parametrize("names", [("alexnet", "mobilenet"),
                                   ("resnet50", "squeezenet_v2", "alexnet"),
                                   POOL])
@pytest.mark.parametrize("seed", [3, 4])
def test_rosters_decide_alike_on_both_paths(trained, names, seed):
    """Same argmax and same disqualified set at the paper's thresholds,
    relaxed ones and none: both the all-disqualified regime and rosters
    where some candidates qualify."""
    model, _ = trained
    config = model.config
    workload = [get_model(n) for n in names]
    rng = np.random.default_rng(seed)
    mappings = [(random_partition_mapping if i % 2 else uniform_block_mapping)(
        workload, config.num_components, rng) for i in range(24)]
    manager = RankMap(PLATFORM, EstimatorPredictor(model, _EMBEDDER),
                      RankMapConfig(mode="dynamic"))
    got = manager.predictor.predict_batch(workload, mappings)
    q = build_q_tensor_batch(workload, mappings,
                             _EMBEDDER.for_workload(workload),
                             config.num_components, config.max_dnns,
                             config.max_layers).astype(np.float32)
    want = np.expm1(np.maximum(oracle_log_rates(model, q), 0.0))
    want = want[:, :len(workload)]
    objective = manager.candidate_objective(workload, None)
    for scale in (1.0, 0.1, 0.0):
        relaxed = objective._replace(thresholds=objective.thresholds * scale)
        a = manager.score_candidates(workload, mappings, got, relaxed)
        b = manager.score_candidates(workload, mappings, want, relaxed)
        assert np.argmax(a) == np.argmax(b)
        np.testing.assert_array_equal(a <= DISQUALIFIED, b <= DISQUALIFIED)


def test_fold_sees_an_optimizer_step(trained):
    """Adam updates the weights in place and training rebinds the running
    stats; the inference path folds on every call, so a stepped estimator
    predicts exactly what a fresh one loaded with its arrays does."""
    trained_model, dataset = trained
    model = ThroughputEstimator(np.random.default_rng(5),
                                trained_model.config)
    model.load_arrays(trained_model.state_arrays())
    q = dataset.build_batch([0, 1, 2], _EMBEDDER)[0]
    before = model.predict_log_rates(q)
    config = EstimatorTrainConfig(epochs=1, batch_size=8)
    optimizer = optim.Adam(model.parameters(), lr=1e-2)
    next(train_epochs(model, dataset, _EMBEDDER, optimizer,
                      np.random.default_rng(6), config))
    fresh = ThroughputEstimator(np.random.default_rng(7), model.config)
    fresh.load_arrays(model.state_arrays())
    after = model.predict_log_rates(q)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, fresh.predict_log_rates(q))
