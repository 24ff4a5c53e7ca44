#!/usr/bin/env python
"""Fine-tune an estimator artifact offline from recorded JSONL traces.

The command-line face of the closed loop: traces written by
:func:`repro.obs.write_trace` (e.g. through ``DynamicResult.telemetry``
dumps or :mod:`tools.trace_summary`'s inputs) carry the realized
``(workload, mapping, rates)`` segments a served run actually produced.
This tool folds them through a :class:`repro.estimator.FinetuneBuffer`
(deduplicated, order-independent), warm-starts the ARTIFACT file and
writes the refined weights to OUT with full lineage
(:func:`repro.estimator.refresh_artifact`); OUT must differ from
ARTIFACT.

Usage (ARTIFACT OUT TRACE...):
    PYTHONPATH=src python tools/finetune_estimator.py \\
        results/estimator_fast_orange_pi_5.pkl \\
        results/estimator_fast_orange_pi_5_refined.pkl \\
        trace1.jsonl trace2.jsonl \\
        [--platform orange_pi_5] [--epochs 4] [--lr 2e-4] [--seed 0]

A scenario serves the refined weights once its ``estimator_path`` names
OUT.  Runs from a plain checkout too: when ``repro`` is not importable
the script retries with the repo's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from repro.estimator import FinetuneBuffer, FinetuneConfig, refresh_artifact
except ImportError:  # plain checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.estimator import FinetuneBuffer, FinetuneConfig, refresh_artifact

from repro.estimator import load_estimator_artifact
from repro.obs import export_segments, read_trace
from repro.runner import PLATFORM_SPECS


def collect_rows(traces: list[Path], max_rows: int) -> FinetuneBuffer:
    """Ingest every trace's segments into one deduplicating buffer."""
    buffer = FinetuneBuffer(max_rows=max_rows)
    for trace in traces:
        snapshot = read_trace(trace)
        fresh = buffer.ingest(export_segments(snapshot))
        print(f"  {trace}: {len(snapshot.segments)} segments "
              f"({fresh} new)")
    return buffer


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        description="Fine-tune an estimator artifact from JSONL traces.")
    parser.add_argument("artifact", type=Path,
                        help="estimator artifact to fine-tune")
    parser.add_argument("out", type=Path,
                        help="path the fine-tuned artifact is written to "
                             "(not the input artifact)")
    parser.add_argument("traces", type=Path, nargs="+",
                        help="write_trace() JSONL files with segments")
    parser.add_argument("--platform", default="orange_pi_5",
                        choices=sorted(PLATFORM_SPECS),
                        help="platform preset the artifact was trained "
                             "for (default orange_pi_5)")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--lr", type=float, default=2e-4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-rows", type=int, default=4096,
                        help="fine-tune buffer bound (default 4096)")
    args = parser.parse_args(argv)

    config = FinetuneConfig(epochs=args.epochs, batch_size=args.batch_size,
                            lr=args.lr, seed=args.seed)
    platform = PLATFORM_SPECS[args.platform]()
    try:
        buffer = collect_rows(args.traces, args.max_rows)
        rows = buffer.rows()
        if not rows:
            print("error: no segments found in the given traces — was "
                  "the run recorded with telemetry (observe=True)?",
                  file=sys.stderr)
            return 1
        report = refresh_artifact(args.artifact, args.out, rows, platform,
                                  config=config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lineage = load_estimator_artifact(args.out, platform).lineage
    print(f"fine-tuned on {report.rows} unique segments "
          f"({buffer.dropped} evicted), {report.steps} steps")
    if report.train_loss:
        print(f"  loss {report.train_loss[0]:.4f} -> "
              f"{report.train_loss[-1]:.4f}")
    print(f"wrote {args.out} (fine-tune epoch {lineage.finetune_epoch}, "
          f"parent {lineage.parent_hash[:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
