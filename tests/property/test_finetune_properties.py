"""Property-based tests for the estimator fine-tuning closed loop.

The loop's determinism contract, swept over randomized segment sets
(derandomized, so runs are reproducible bit for bit):

* **Ingestion-order invariance** — fine-tuning the same parent artifact
  on the same segments produces *bit-identical* child files no
  matter what order the rows arrived in, because the
  :class:`~repro.estimator.FinetuneBuffer` canonicalizes (dedup + sort)
  before any gradient step.
* **Duplicate/zero no-ops** — re-ingesting rows the buffer has already
  seen changes nothing, and a zero-row ``finetune`` leaves every weight
  array untouched.
* **Worker-count invariance** — the segment rows exported from an
  observed fleet's merged telemetry are equal with 1 and N workers, so
  the closed loop feeds the same rows regardless of parallelism.

Fine-tune passes run over the tiny estimator config (one epoch, batch
size four) so each hypothesis example costs a handful of steps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimator import (EstimatorConfig, FinetuneBuffer, FinetuneConfig,
                             ThroughputEstimator, finetune,
                             load_estimator_artifact, refresh_artifact,
                             save_estimator_artifact)
from repro.hw import orange_pi_5
from repro.obs import export_segments
from repro.runner import DynamicScenario, FleetScenario, ScenarioRunner
from repro.vqvae import LayerVQVAE
from repro.zoo import get_model

PLATFORM = orange_pi_5()
POOL = ("alexnet", "squeezenet", "mobilenet_v2", "shufflenet")

TINY_CFG = EstimatorConfig(max_dnns=4, stem_channels=4,
                           block_channels=(4, 4, 4), attn_dim=4,
                           decoder_dim=8)
FAST_FT = FinetuneConfig(epochs=1, batch_size=4)


def _row(names, rate, duration):
    return {
        "workload": list(names),
        "assignments": [[0] * get_model(n).num_blocks for n in names],
        "rates": [float(rate)] * len(names),
        "duration_s": float(duration),
    }


row_st = st.builds(
    _row,
    names=st.lists(st.sampled_from(POOL), min_size=1, max_size=3,
                   unique=True),
    rate=st.sampled_from([0.5, 1.0, 2.0]),
    duration=st.floats(0.5, 60.0, allow_nan=False))

rows_st = st.lists(row_st, min_size=1, max_size=6)


def _write_base(path):
    estimator = ThroughputEstimator(np.random.default_rng(3), TINY_CFG)
    vqvae = LayerVQVAE(np.random.default_rng(4))
    save_estimator_artifact(path, estimator, vqvae, PLATFORM,
                            val_l2=0.5, val_spearman=0.8)


# -------------------------------------------------- ingestion-order identity
@settings(max_examples=8, deadline=None, derandomize=True)
@given(rows=rows_st, order_seed=st.integers(0, 1_000))
def test_refresh_bit_identical_regardless_of_row_order(tmp_path_factory,
                                                       rows, order_seed):
    base = tmp_path_factory.mktemp("ft") / "estimator.pkl"
    _write_base(base)
    perm = np.random.default_rng(order_seed).permutation(len(rows))
    shuffled = [rows[i] for i in perm]

    outs = []
    for i, ordering in enumerate((rows, shuffled)):
        buffer = FinetuneBuffer()
        buffer.ingest(ordering)
        out = base.with_name(f"child{i}.pkl")
        refresh_artifact(base, out, buffer.rows(), PLATFORM, config=FAST_FT)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------------ duplicate / zero rows
@settings(max_examples=20, deadline=None, derandomize=True)
@given(rows=rows_st, echo_seed=st.integers(0, 1_000))
def test_duplicate_ingestion_is_a_noop(rows, echo_seed):
    rng = np.random.default_rng(echo_seed)
    echoes = [rows[i] for i in rng.integers(0, len(rows), size=4)]
    once, twice = FinetuneBuffer(), FinetuneBuffer()
    once.ingest(rows)
    twice.ingest(rows)
    assert twice.ingest(echoes) == 0
    assert once.rows() == twice.rows()
    assert len(twice) == len(once)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 1_000))
def test_zero_rows_never_move_weights(tmp_path_factory, seed):
    path = tmp_path_factory.mktemp("ft") / "estimator.pkl"
    estimator = ThroughputEstimator(np.random.default_rng(seed), TINY_CFG)
    save_estimator_artifact(path, estimator, LayerVQVAE(
        np.random.default_rng(seed + 1)), PLATFORM)
    artifact = load_estimator_artifact(path, PLATFORM)
    before = [a.copy() for a in artifact.estimator.state_arrays()]
    report = finetune(artifact, [], FAST_FT)
    assert report.steps == 0
    for a, b in zip(before, artifact.estimator.state_arrays()):
        np.testing.assert_array_equal(a, b)


# ------------------------------------------------- worker-count invariance
@settings(max_examples=4, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       routing=st.sampled_from(["least_loaded", "pressure_feedback"]))
def test_exported_rows_identical_across_worker_counts(seed, routing):
    """The fleet's merged telemetry exports the same segment rows with 1
    and 2 workers, so fine-tuning ingests identical data either way."""
    def fleet():
        nodes = tuple(DynamicScenario(
            name=f"node{i}", manager="baseline", policy="full",
            platform="orange_pi_5", horizon_s=240.0,
            arrival_rate_per_s=0.05, mean_session_s=90.0, capacity=2,
            seed=seed, pool=POOL, observe=True) for i in range(2))
        return FleetScenario(
            name="ft_prop_fleet", nodes=nodes, routing=routing,
            horizon_s=240.0, arrival_rate_per_s=0.1, mean_session_s=90.0,
            seed=seed, feedback_rounds=1)

    serial = ScenarioRunner(max_workers=1).run_fleet([fleet()])[0]
    parallel = ScenarioRunner(max_workers=2).run_fleet([fleet()])[0]
    rows_serial = export_segments(serial.telemetry)
    rows_parallel = export_segments(parallel.telemetry)
    assert rows_serial == rows_parallel
    one, two = FinetuneBuffer(), FinetuneBuffer()
    one.ingest(rows_serial)
    two.ingest(rows_parallel)
    assert one.rows() == two.rows()
