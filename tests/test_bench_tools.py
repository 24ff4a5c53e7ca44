"""Unit tests for the bench-history tooling (benchmarks/record_bench.py).

The recorder is a script, not a package module, so it is loaded by file
path; only the pure pieces (regression flagging, history tailing) are
tested — the measurement run itself is exercised by ``make bench``.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_record_bench():
    spec = importlib.util.spec_from_file_location(
        "record_bench", REPO_ROOT / "benchmarks" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(mean):
    return {"mean_s": mean, "stddev_s": 0.0, "ops_per_s": 1.0 / mean,
            "rounds": 10}


class TestFlagRegressions:
    def test_flags_guarded_row_over_threshold(self):
        rb = _load_record_bench()
        flags = rb.flag_regressions(
            {"test_bench_serve_replan[warm]": row(1.0e-4)},
            {"test_bench_serve_replan[warm]": row(1.4e-4)})
        assert len(flags) == 1
        assert "test_bench_serve_replan[warm]" in flags[0]
        assert "+40%" in flags[0]

    def test_within_threshold_not_flagged(self):
        rb = _load_record_bench()
        flags = rb.flag_regressions(
            {"test_bench_serve_replan[full]": row(1.0e-2)},
            {"test_bench_serve_replan[full]": row(1.2e-2)})
        assert flags == []

    def test_unguarded_rows_ignored(self):
        rb = _load_record_bench()
        flags = rb.flag_regressions(
            {"test_bench_simulator_solve": row(1.0e-2)},
            {"test_bench_simulator_solve": row(9.0e-2)})
        assert flags == []

    def test_new_and_removed_rows_skipped(self):
        rb = _load_record_bench()
        flags = rb.flag_regressions(
            {"test_bench_serve_replan[cache]": row(1.0e-6)},
            {"test_bench_serve_replan[brand_new]": row(5.0e-6)})
        assert flags == []

    def test_scale_rows_guarded(self):
        """The streaming-scale sweep is a guarded hot path: a silent
        super-linear slip in the million-session rows must flag."""
        rb = _load_record_bench()
        assert "test_bench_serve_scale[" in rb.GUARDED_PREFIXES
        flags = rb.flag_regressions(
            {"test_bench_serve_scale[1e5]": row(6.0)},
            {"test_bench_serve_scale[1e5]": row(9.0)})
        assert len(flags) == 1
        assert "test_bench_serve_scale[1e5]" in flags[0]

    def test_speedups_never_flagged(self):
        rb = _load_record_bench()
        flags = rb.flag_regressions(
            {"test_bench_serve_replan[warm]": row(2.0e-4)},
            {"test_bench_serve_replan[warm]": row(1.0e-4)})
        assert flags == []


class TestGitSha:
    def test_stamps_short_sha_in_a_checkout(self):
        """The repo under test is a git checkout, so the stamp resolves."""
        rb = _load_record_bench()
        sha = rb.git_sha()
        assert sha is not None
        assert 4 <= len(sha) <= 40
        assert all(c in "0123456789abcdef" for c in sha)

    def test_non_git_directory_returns_none(self, tmp_path):
        """A tarball export (no .git anywhere up the tree) must stamp
        nothing rather than crash the history append."""
        rb = _load_record_bench()
        # tmp_path may live under a git-controlled tree on some CI
        # machines; guard the assumption instead of asserting blindly.
        import subprocess
        probe = subprocess.run(["git", "rev-parse", "--git-dir"],
                               cwd=tmp_path, capture_output=True)
        if probe.returncode == 0:
            return
        assert rb.git_sha(tmp_path) is None

    def test_obs_bench_guarded(self):
        """The recorder-overhead rows are a guarded hot path."""
        rb = _load_record_bench()
        assert "test_bench_serve_obs[" in rb.GUARDED_PREFIXES
        flags = rb.flag_regressions(
            {"test_bench_serve_obs[on]": row(1.0)},
            {"test_bench_serve_obs[on]": row(1.5)})
        assert len(flags) == 1

    def test_closed_loop_benches_guarded(self):
        """The fine-tune and pressure-feedback rows are guarded hot
        paths."""
        rb = _load_record_bench()
        assert "test_bench_finetune[" in rb.GUARDED_PREFIXES
        assert "test_bench_fleet_feedback[" in rb.GUARDED_PREFIXES
        flags = rb.flag_regressions(
            {"test_bench_finetune[epoch]": row(1.0),
             "test_bench_fleet_feedback[rounds2]": row(2.0)},
            {"test_bench_finetune[epoch]": row(1.4),
             "test_bench_fleet_feedback[rounds2]": row(2.2)})
        assert len(flags) == 1 and "finetune" in flags[0]

    def test_fleet_energy_bench_guarded(self):
        """The power-governor dispatch rows are a guarded hot path."""
        rb = _load_record_bench()
        assert "test_bench_fleet_energy[" in rb.GUARDED_PREFIXES
        flags = rb.flag_regressions(
            {"test_bench_fleet_energy[cap_on]": row(1.0),
             "test_bench_fleet_energy[cap_off]": row(0.5)},
            {"test_bench_fleet_energy[cap_on]": row(1.6),
             "test_bench_fleet_energy[cap_off]": row(0.5)})
        assert len(flags) == 1 and "cap_on" in flags[0]

    def test_solver_backend_benches_guarded(self):
        """The solver batch sweep (the C kernel at batch 1, 4 and 16) is
        a guarded hot path."""
        rb = _load_record_bench()
        assert "test_bench_simulator_solve_batch[" in rb.GUARDED_PREFIXES
        flags = rb.flag_regressions(
            {"test_bench_simulator_solve_batch[1]": row(0.001),
             "test_bench_simulator_solve_batch[16]": row(0.004)},
            {"test_bench_simulator_solve_batch[1]": row(0.001),
             "test_bench_simulator_solve_batch[16]": row(0.008)})
        assert len(flags) == 1 and "[16]" in flags[0]

    def test_segment_solve_benches_guarded(self):
        """The batch-1 segment solve (the Python around the kernel) is a
        guarded hot path."""
        rb = _load_record_bench()
        assert "test_bench_simulator_segment_solve[" in rb.GUARDED_PREFIXES
        flags = rb.flag_regressions(
            {"test_bench_simulator_segment_solve[warm]": row(6e-5),
             "test_bench_simulator_segment_solve[cold]": row(1e-4)},
            {"test_bench_simulator_segment_solve[warm]": row(9e-5),
             "test_bench_simulator_segment_solve[cold]": row(1e-4)})
        assert len(flags) == 1 and "[warm]" in flags[0]

    def test_estimator_forward_bench_guarded(self):
        """The estimator's inference forward pass is a guarded hot path."""
        rb = _load_record_bench()
        assert "test_bench_estimator_forward" in rb.GUARDED_PREFIXES
        flags = rb.flag_regressions(
            {"test_bench_estimator_forward": row(0.02),
             "test_bench_estimator_predict[batch]": row(0.05)},
            {"test_bench_estimator_forward": row(0.03),
             "test_bench_estimator_predict[batch]": row(0.05)})
        assert len(flags) == 1 and "estimator_forward" in flags[0]

    def test_cold_plan_benches_guarded(self):
        """The cold-plan rows (a whole oracle plan, a rollout, stage-demand
        assembly and long limit-cycle solves) are guarded hot paths."""
        rb = _load_record_bench()
        rows = ("test_bench_rankmap_plan_oracle", "test_bench_mcts_rollout",
                "test_bench_stage_demands[cold]",
                "test_bench_stage_demands[warm]",
                "test_bench_simulator_limit_cycle")
        previous = {name: row(1e-3) for name in rows}
        for name in rows:
            current = dict(previous, **{name: row(1.5e-3)})
            flags = rb.flag_regressions(previous, current)
            assert len(flags) == 1 and name in flags[0]


class TestLastHistoryEntry:
    def test_reads_final_line(self, tmp_path):
        rb = _load_record_bench()
        path = tmp_path / "hist.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"date": "2026-01-01"}) + "\n")
            fh.write(json.dumps({"date": "2026-02-01"}) + "\n")
        assert rb.last_history_entry(path)["date"] == "2026-02-01"

    def test_missing_or_empty_file(self, tmp_path):
        rb = _load_record_bench()
        assert rb.last_history_entry(tmp_path / "none.jsonl") is None
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        assert rb.last_history_entry(empty) is None

    def test_repo_history_parses_with_guarded_rows(self):
        """The committed history must stay consumable by the flagger."""
        rb = _load_record_bench()
        entry = rb.last_history_entry(REPO_ROOT / "BENCH_history.jsonl")
        assert entry is not None
        assert any(name.startswith("test_bench_serve_replan[")
                   for name in entry["benchmarks"])
        # Self-comparison is the identity: nothing flags.
        assert rb.flag_regressions(entry["benchmarks"],
                                   entry["benchmarks"]) == []
