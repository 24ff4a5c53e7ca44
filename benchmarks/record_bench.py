#!/usr/bin/env python
"""Measure the micro-benchmarks and append a dated entry to the history.

``make bench`` runs this: it invokes ``benchmarks/emit_bench_json.py``
(which refreshes ``BENCH_micro.json``) and then appends the distilled
record, stamped with the run date and the checkout's short git SHA
(omitted outside a git checkout), as one JSON line to
``BENCH_history.jsonl``.  Committing the history file accumulates a
machine-readable perf trajectory across PRs — the solver batch sweep
(``test_bench_simulator_solve_batch[*]``) and the serve replan-policy
comparison (``test_bench_serve_replan[*]``) are the rows to watch.

Before appending, the hot-path rows are compared against the previous
history entry: any row under one of the sixteen ``GUARDED_PREFIXES`` —
the ``test_bench_serve_replan``, ``test_bench_serve_preempt``,
``test_bench_serve_scale``, ``test_bench_serve_obs``,
``test_bench_estimator_predict``, ``test_bench_finetune``,
``test_bench_fleet_feedback``, ``test_bench_fleet_energy``,
``test_bench_simulator_solve_batch``,
``test_bench_simulator_segment_solve`` and ``test_bench_stage_demands``
families and the ``test_bench_estimator_forward``,
``test_bench_rankmap_plan_oracle``, ``test_bench_mcts_rollout``,
``test_bench_stage_pack`` and ``test_bench_simulator_limit_cycle`` rows
— whose mean got more than 25% slower is flagged loudly (a hot path
must not regress silently behind an unrelated change).  Flags are warnings, not failures — machine
noise is real — but they belong in the change's review discussion.

Usage:
    PYTHONPATH=src python benchmarks/record_bench.py [history.jsonl]
"""

from __future__ import annotations

import datetime
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmark-name prefixes guarded against silent slowdowns.
GUARDED_PREFIXES = ("test_bench_serve_replan[", "test_bench_serve_preempt[",
                    "test_bench_serve_scale[", "test_bench_serve_obs[",
                    "test_bench_estimator_predict[",
                    "test_bench_estimator_forward",
                    "test_bench_finetune[", "test_bench_fleet_feedback[",
                    "test_bench_fleet_energy[",
                    "test_bench_simulator_solve_batch[",
                    "test_bench_simulator_segment_solve[",
                    "test_bench_rankmap_plan_oracle",
                    "test_bench_mcts_rollout", "test_bench_stage_demands[",
                    "test_bench_stage_pack",
                    "test_bench_simulator_limit_cycle")

#: Relative mean-time growth beyond which a guarded row is flagged.
REGRESSION_THRESHOLD = 0.25


def flag_regressions(previous: dict, current: dict,
                     prefixes: tuple[str, ...] = GUARDED_PREFIXES,
                     threshold: float = REGRESSION_THRESHOLD) -> list[str]:
    """Compare guarded benchmark rows of two history entries.

    ``previous`` and ``current`` are ``{name: {"mean_s": ...}}`` benchmark
    maps (the ``"benchmarks"`` value of a history entry).  Returns one
    human-readable flag line per guarded row whose mean grew more than
    ``threshold`` relative to the previous entry; rows absent from either
    side are skipped (a renamed or new benchmark has no baseline).
    """
    flags = []
    for name in sorted(current):
        if not any(name.startswith(prefix) for prefix in prefixes):
            continue
        old = previous.get(name)
        if not old:
            continue
        old_mean = old.get("mean_s", 0.0)
        new_mean = current[name].get("mean_s", 0.0)
        if old_mean <= 0.0:
            continue
        growth = new_mean / old_mean - 1.0
        if growth > threshold:
            flags.append(
                f"REGRESSION {name}: mean {old_mean:.3e} s -> "
                f"{new_mean:.3e} s (+{growth:.0%}, threshold "
                f"+{threshold:.0%})")
    return flags


def git_sha(repo_root: Path = REPO_ROOT) -> str | None:
    """Short commit SHA of ``repo_root``'s checkout, or ``None``.

    History entries stamped with the SHA tie each perf row to the exact
    tree that produced it — ``git log`` alone cannot, because the entry is
    committed one revision *after* the code it measured.  Returns ``None``
    (and stamps nothing) when the checkout is not a git repository, git is
    not installed, or the repo has no commits yet: a perf record from a
    tarball export is still a perf record.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def last_history_entry(history_path: Path) -> dict | None:
    """The most recent history entry, or ``None`` for a fresh file."""
    if not history_path.exists():
        return None
    last = None
    with open(history_path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                last = line
    return json.loads(last) if last else None


def main() -> None:
    history_path = Path(sys.argv[1]) if len(sys.argv) > 1 \
        else REPO_ROOT / "BENCH_history.jsonl"
    micro_path = REPO_ROOT / "BENCH_micro.json"
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "emit_bench_json.py"),
         str(micro_path)],
        check=True, cwd=REPO_ROOT)
    record = json.loads(micro_path.read_text())
    entry = {
        "date": datetime.date.today().isoformat(),
        "meta": record.get("meta", {}),
        "benchmarks": record.get("benchmarks", {}),
    }
    sha = git_sha()
    if sha is not None:
        entry["git_sha"] = sha
    previous = last_history_entry(history_path)
    if previous is not None:
        flags = flag_regressions(previous.get("benchmarks", {}),
                                 entry["benchmarks"])
        for flag in flags:
            print(flag)
        if flags:
            print(f"{len(flags)} guarded benchmark(s) regressed vs the "
                  f"{previous.get('date', '?')} entry — investigate before "
                  "committing this history entry.")
    with open(history_path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    count = sum(1 for _ in open(history_path))
    print(f"Appended {entry['date']} entry to {history_path} "
          f"({count} entries total)")


if __name__ == "__main__":
    main()
