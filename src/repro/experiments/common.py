"""Shared experiment infrastructure: presets, trained artifacts, managers.

Every experiment runs through an :class:`ExperimentContext` that owns the
platform, the trained VQ-VAE + estimator (cached on disk per preset and
platform as one estimator artifact file, so 11 experiments share one
training run), the manager roster and the output directory.  Presets
trade fidelity for runtime:

* ``tiny``  — CI-sized smoke configuration (seconds).
* ``fast``  — the default recorded in EXPERIMENTS.md (minutes).
* ``paper`` — the paper's published sizes (10 K dataset, 50 epochs, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..baselines import GAConfig, GeneticManager, GpuBaseline, Mosaic, Odmdef, OmniBoost
from ..core import EstimatorPredictor, RankMap, RankMapConfig
from ..core.manager import Manager
from ..estimator import (
    EstimatorArtifact,
    EstimatorConfig,
    EstimatorTrainConfig,
    ThroughputEstimator,
    generate_dataset,
    load_estimator_artifact,
    save_estimator_artifact,
    train_estimator,
)
from ..hw import orange_pi_5
from ..hw.platform import Platform
from ..search import MCTSConfig
from ..utils import lookup
from ..vqvae import EmbeddingCache, VQVAETrainConfig, train_vqvae
from ..workloads import sample_mix

__all__ = ["ExperimentPreset", "PRESETS", "ExperimentContext",
           "ExperimentResult", "sample_mix"]


@dataclass(frozen=True)
class ExperimentPreset:
    """Scaling knobs shared by all experiments."""

    name: str
    dataset_samples: int
    estimator_epochs: int
    vqvae_epochs: int
    mcts_iterations: int
    mcts_rollouts: int
    motivation_mappings: int
    mixes_per_size: int
    ga_population: int
    ga_generations: int
    odmdef_profiling_runs: int
    seed: int = 0


PRESETS: dict[str, ExperimentPreset] = {
    "tiny": ExperimentPreset(
        name="tiny", dataset_samples=48, estimator_epochs=1, vqvae_epochs=2,
        mcts_iterations=8, mcts_rollouts=2, motivation_mappings=30,
        mixes_per_size=1, ga_population=6, ga_generations=2,
        odmdef_profiling_runs=6,
    ),
    "fast": ExperimentPreset(
        name="fast", dataset_samples=2200, estimator_epochs=12,
        vqvae_epochs=12, mcts_iterations=70, mcts_rollouts=4,
        motivation_mappings=300, mixes_per_size=6, ga_population=16,
        ga_generations=8, odmdef_profiling_runs=40,
    ),
    "paper": ExperimentPreset(
        name="paper", dataset_samples=10_000, estimator_epochs=50,
        vqvae_epochs=30, mcts_iterations=250, mcts_rollouts=4,
        motivation_mappings=300, mixes_per_size=6, ga_population=24,
        ga_generations=15, odmdef_profiling_runs=120,
    ),
}


@dataclass
class ExperimentResult:
    """Uniform experiment output: rows for CSV plus rendered text."""

    experiment: str
    headers: list[str]
    rows: list[list]
    text: str

    def save(self, directory: Path) -> None:
        from ..utils import to_csv

        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{self.experiment}.csv").write_text(
            to_csv(self.headers, self.rows))
        (directory / f"{self.experiment}.txt").write_text(self.text + "\n")




class ExperimentContext:
    """Holds the platform, trained artifacts and the manager roster."""

    def __init__(self, preset: str | ExperimentPreset = "fast",
                 results_dir: str | Path = "results",
                 platform: Platform | None = None,
                 use_artifact_cache: bool = True):
        self.preset = (preset if isinstance(preset, ExperimentPreset)
                       else PRESETS[preset])
        self.platform = platform or orange_pi_5()
        self.results_dir = Path(results_dir)
        self.use_artifact_cache = use_artifact_cache
        self._artifacts: EstimatorArtifact | None = None
        self._mix_study = None  # filled by experiments.mix_study

    # ------------------------------------------------------------------
    @property
    def artifacts(self) -> EstimatorArtifact:
        """The context's trained VQ-VAE and estimator, trained once.

        With ``use_artifact_cache`` they are loaded from the
        :meth:`estimator_artifact_path` file, or trained and saved there
        when it is missing, corrupt or trained for another platform.
        """
        if self._artifacts is None:
            if self.use_artifact_cache:
                self._artifacts = self._load_artifact_file()
            if self._artifacts is None:
                self._artifacts = self._train_artifacts()
                if self.use_artifact_cache:
                    self._write_artifact_file()
        return self._artifacts

    def _artifact_file(self) -> Path:
        # Keyed by platform as well as preset: the dataset (and therefore
        # the trained weights) depends on the board the rates were
        # simulated on.
        return (self.results_dir /
                f"estimator_{self.preset.name}_{self.platform.name}.pkl")

    def _load_artifact_file(self) -> EstimatorArtifact | None:
        """The artifact file, read once; ``None`` when it is missing,
        corrupt, of an old format or trained for another platform."""
        path = self._artifact_file()
        if not path.exists():
            return None
        try:
            return load_estimator_artifact(path, self.platform)
        except ValueError:
            return None

    def _write_artifact_file(self) -> Path:
        """Save :attr:`artifacts` (training them if needed) as the
        artifact file and return its path."""
        path = self._artifact_file()
        artifacts = self.artifacts
        save_estimator_artifact(
            path, artifacts.estimator, artifacts.vqvae, self.platform,
            val_l2=artifacts.val_l2, val_spearman=artifacts.val_spearman)
        return path

    def _train_artifacts(self) -> EstimatorArtifact:
        rng = np.random.default_rng(self.preset.seed)
        estimator = ThroughputEstimator(
            np.random.default_rng(self.preset.seed + 1), EstimatorConfig())
        vqvae, _ = train_vqvae(
            config=VQVAETrainConfig(epochs=self.preset.vqvae_epochs,
                                    seed=self.preset.seed))
        embedder = EmbeddingCache(vqvae)
        dataset = generate_dataset(self.platform, rng,
                                   self.preset.dataset_samples)
        report = train_estimator(
            estimator, dataset, embedder,
            EstimatorTrainConfig(epochs=self.preset.estimator_epochs,
                                 seed=self.preset.seed),
        )
        return EstimatorArtifact(
            estimator=estimator, vqvae=vqvae, embedder=embedder,
            config=estimator.config,
            val_l2=report.final_val_loss, val_spearman=report.val_spearman)

    # ------------------------------------------------------------------
    def mcts_config(self, seed_offset: int = 0) -> MCTSConfig:
        return MCTSConfig(iterations=self.preset.mcts_iterations,
                          rollouts_per_leaf=self.preset.mcts_rollouts,
                          seed=self.preset.seed + seed_offset)

    def managers(self) -> dict[str, Manager]:
        """The paper's full roster, in the evaluation's display order."""
        predictor = EstimatorPredictor(self.artifacts.estimator,
                                       self.artifacts.embedder)
        return {
            "baseline": GpuBaseline(),
            "mosaic": Mosaic(self.platform),
            "odmdef": Odmdef(
                self.platform,
                profiling_runs=self.preset.odmdef_profiling_runs,
                seed=self.preset.seed,
            ),
            "ga": GeneticManager(
                self.platform,
                GAConfig(population=self.preset.ga_population,
                         generations=self.preset.ga_generations,
                         seed=self.preset.seed),
            ),
            "omniboost": OmniBoost(self.platform, predictor,
                                   self.mcts_config(100)),
            # RankMap re-measures its top-4 candidates on the board before
            # deploying (deployment hardening; see EXPERIMENTS.md) — the
            # extra 4 measurement windows are part of its modeled latency.
            "rankmap_s": RankMap(
                self.platform, predictor,
                RankMapConfig(mode="static", mcts=self.mcts_config(200),
                              board_validation_top_k=4),
            ),
            "rankmap_d": RankMap(
                self.platform, predictor,
                RankMapConfig(mode="dynamic", mcts=self.mcts_config(300),
                              board_validation_top_k=4),
            ),
        }

    def estimator_artifact_path(self) -> Path:
        """Train-or-load the context's estimator once; return its artifact.

        The first call trains (or loads) the VQ-VAE + estimator through
        :attr:`artifacts` and persists them as one
        :func:`repro.estimator.save_estimator_artifact` file under the
        results directory — the same file :attr:`artifacts` reads back
        with ``use_artifact_cache``; later calls — and every
        :class:`~repro.runner.ScenarioRunner` worker a sweep fans out —
        reuse that file by path.  This is what lets
        :meth:`serve_sweep`/:meth:`fleet_serve_sweep` pay for training
        exactly once per (preset, platform) regardless of worker count.
        The filename is keyed by platform and an existing file is
        fingerprint-validated before reuse, so a stale artifact left by
        a context on a different board — or a corrupt file — is
        retrained instead of silently downgrading every sweep cell.
        """
        if self._load_artifact_file() is None:
            return self._write_artifact_file()
        return self._artifact_file()

    def refresh_estimator(self, results, out_path, config=None):
        """Fine-tune the context's estimator on served telemetry segments.

        Closes the paper's open loop: ``results`` are
        :class:`~repro.runner.DynamicResult` /
        :class:`~repro.runner.FleetResult` objects from an observed sweep
        (``observe=True`` so telemetry was recorded); their realized
        ``(workload, mapping, rates)`` segments become fine-tuning rows
        (:func:`repro.obs.export_segments` through a
        :class:`repro.estimator.FinetuneBuffer`, so duplicates collapse
        deterministically) and :func:`repro.estimator.refresh_artifact`
        warm-starts from the :meth:`estimator_artifact_path` file, writing
        the refined artifact to ``out_path``.  The parent file is read
        once; when it is missing or invalid the context retrains, saves
        and reads it back first, as :meth:`estimator_artifact_path` does.
        A sweep serves the refined weights by naming
        ``estimator_path=out_path``; the context's own artifact is left
        as it was.

        Returns the :class:`~repro.estimator.FinetuneReport`.  Raises
        ``ValueError`` when no result carries telemetry segments — a
        silent no-op refresh would masquerade as adaptation.
        """
        from ..estimator import FinetuneBuffer, refresh_artifact
        from ..obs import export_segments

        buffer = FinetuneBuffer()
        for result in results:
            snapshot = getattr(result, "telemetry", None)
            if snapshot is not None:
                buffer.ingest(export_segments(snapshot))
        rows = buffer.rows()
        if not rows:
            raise ValueError(
                "no telemetry segments to fine-tune on — run the sweep "
                "with observe=True so served segments are recorded")
        parent = self._load_artifact_file()
        if parent is None:
            parent = load_estimator_artifact(self._write_artifact_file(),
                                             self.platform)
        return refresh_artifact(self._artifact_file(), out_path, rows,
                                self.platform, config=config, parent=parent)

    # ------------------------------------------------------------------
    def serve_sweep(self, policies: tuple[str, ...] = ("full", "warm",
                                                       "cache"),
                    managers: tuple[str, ...] = ("rankmap_d",),
                    traces_per_cell: int = 2,
                    max_workers: int | None = None,
                    **fields):
        """Dynamic-traffic study fanned across the process pool.

        Every (policy, manager) cell serves the same sampled Poisson
        traces through :func:`repro.serve.serve_trace` on a worker
        process, so replan policies are compared on identical arrival
        processes.  Every other keyword is a
        :class:`~repro.runner.DynamicScenario` field passed by name
        through :func:`~repro.runner.dynamic_sweep_scenarios`, completed
        by :meth:`_sweep_fields`.  Returns ``(results, summary_rows)``.
        """
        from ..runner import (ScenarioRunner, dynamic_sweep_scenarios,
                              summarise_dynamic)

        scenarios = dynamic_sweep_scenarios(
            policies, managers, traces_per_cell, self.preset.seed,
            **self._sweep_fields(fields))
        results = ScenarioRunner(max_workers=max_workers).run_dynamic(
            scenarios)
        return results, summarise_dynamic(results)

    def fleet_serve_sweep(self, routings: tuple[str, ...] = ("round_robin",
                                                             "least_loaded",
                                                             "tier_affinity"),
                          traces_per_cell: int = 2,
                          num_nodes: int = 3,
                          platforms: tuple[str, ...] = ("orange_pi_5",
                                                        "jetson_class"),
                          max_workers: int | None = None,
                          **fields):
        """Cluster-scale serving study fanned across the process pool.

        The multi-node analogue of :meth:`serve_sweep`: every routing
        policy dispatches the *same* sampled aggregate Poisson traces
        across a heterogeneous fleet (node ``i`` runs the
        ``platforms[i % len(platforms)]`` preset), each node serving its
        slice through :func:`repro.serve.serve_trace` on a worker
        process.  Every other keyword goes by name through
        :func:`~repro.runner.fleet_sweep_scenarios` — to every
        :class:`~repro.runner.FleetScenario` cell when it names one of
        its fields (demand, ``fail_at``, ``feedback_rounds``,
        ``rate_shift``, the power knobs), to every node otherwise —
        completed by :meth:`_sweep_fields`.  With ``predictor="estimator"``
        nodes on platforms the shared artifact was not trained for
        downgrade to the oracle with a warning, mirroring a shared
        ``cache_path``.  Returns ``(results, summary_rows)``.
        """
        from ..runner import (ScenarioRunner, fleet_sweep_scenarios,
                              summarise_fleet)

        node_platforms = {platforms[i % len(platforms)]
                          for i in range(num_nodes)}
        scenarios = fleet_sweep_scenarios(
            routings, traces_per_cell, num_nodes, platforms,
            self.preset.seed, **self._sweep_fields(fields, node_platforms))
        results = ScenarioRunner(max_workers=max_workers).run_fleet(
            scenarios)
        return results, summarise_fleet(results)

    def _sweep_fields(self, fields: dict,
                      node_platforms: set[str] | None = None) -> dict:
        """Complete a context sweep's spec keywords in place.

        What the context adds to the specs' own defaults: its platform
        unless the sweep names node platforms or a ``platform``, the
        preset's MCTS budget unless the caller names one, and path fields
        as plain strings.  ``predictor="estimator"`` without an
        ``estimator_path`` gets the artifact :meth:`estimator_artifact_path`
        trains (or loads) once and every worker loads by path — refused
        when no node runs on the context's platform, since every cell
        would then silently serve the oracle (node platforms, not the raw
        ``platforms`` tuple: a short fleet may never reach the matching
        entry).  A node platform that is not a runner preset is refused
        first, before any training.
        """
        from ..runner import PLATFORM_SPECS

        if node_platforms is None:
            node_platforms = {fields.setdefault("platform",
                                                self.platform.name)}
        for key in sorted(node_platforms):
            lookup(PLATFORM_SPECS, key, "platform")
        fields.setdefault("search_iterations", self.preset.mcts_iterations)
        fields.setdefault("search_rollouts", self.preset.mcts_rollouts)
        if fields.get("predictor") == "estimator" \
                and fields.get("estimator_path") is None:
            if self.platform.name not in node_platforms:
                raise ValueError(
                    f"the context's estimator is trained for "
                    f"{self.platform.name!r}, which no sweep node runs on "
                    f"(node platforms {sorted(node_platforms)}): it would "
                    "downgrade every cell to the oracle on every node — "
                    "pass an estimator_path trained for one of them")
            fields["estimator_path"] = self.estimator_artifact_path()
        for key in ("cache_path", "estimator_path"):
            if fields.get(key) is not None:
                fields[key] = str(fields[key])
        return fields
