"""Versioned JSONL trace export for telemetry snapshots.

A trace file is line-delimited JSON: one header line (schema name +
:data:`~repro.obs.recorder.SCHEMA_VERSION` + snapshot identity), then
one line per record with a ``type`` tag (``counter`` / ``gauge`` /
``histogram`` / ``span`` / ``span_stat`` / ``segment``).  Records are
written in the snapshot's canonical sorted order and floats go through
Python's shortest-round-trip ``repr``, so
``read_trace(write_trace(snap)) == snap`` bit-exactly — the round-trip
the property suite pins.

:func:`export_segments` emits the realized ``(workload, mapping,
rates)`` usage records in the plain-dict shape the estimator
fine-tuning loop (ROADMAP: closed-loop adaptive control) will consume
as training rows.
"""

from __future__ import annotations

import json
from pathlib import Path

from .recorder import (
    SCHEMA_VERSION,
    HistogramState,
    SegmentUsage,
    Span,
    TelemetrySnapshot,
)

__all__ = ["TRACE_SCHEMA", "write_trace", "read_trace", "export_segments"]

#: The header's schema identifier; readers refuse anything else.
TRACE_SCHEMA = "repro.obs.trace"


def write_trace(snapshot: TelemetrySnapshot, path: str | Path) -> int:
    """Write ``snapshot`` to ``path`` as a JSONL trace; returns the
    record count (header excluded).

    The parent directory is created if needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "schema": TRACE_SCHEMA, "version": SCHEMA_VERSION,
            "where": snapshot.where, "max_spans": snapshot.max_spans,
        }) + "\n")

        def emit(record: dict) -> None:
            nonlocal records
            fh.write(json.dumps(record) + "\n")
            records += 1

        for name, label, value in snapshot.counters:
            emit({"type": "counter", "name": name, "label": label,
                  "value": value})
        for name, t_s, value in snapshot.gauges:
            emit({"type": "gauge", "name": name, "t_s": t_s,
                  "value": value})
        for name, label, state in snapshot.histograms:
            emit({"type": "histogram", "name": name, "label": label,
                  "count": state.count, "total": state.total,
                  "min": state.min_value, "max": state.max_value,
                  "buckets": list(state.buckets)})
        for span in snapshot.spans:
            emit({"type": "span", "name": span.name, "where": span.where,
                  "t_s": span.t_s, "duration_s": span.duration_s,
                  "attrs": dict(span.attrs), "seq": span.seq})
        for name, count, total in snapshot.span_stats:
            emit({"type": "span_stat", "name": name, "count": count,
                  "total_s": total})
        for usage in snapshot.segments:
            emit({"type": "segment", "workload": list(usage.workload),
                  "assignments": [list(row) for row in usage.assignments],
                  "rates": list(usage.rates),
                  "duration_s": usage.duration_s})
    return records


def read_trace(path: str | Path) -> TelemetrySnapshot:
    """Rebuild a :class:`TelemetrySnapshot` from a :func:`write_trace`
    file.

    Refuses (``ValueError``, with any underlying cause chained) a file
    whose header is missing, names a different schema, or carries an
    unknown version, and any header or record that is malformed — the
    trace layout is a contract, not a suggestion.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"trace file {path} is empty")
    try:
        header = json.loads(lines[0])
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"trace file {path} has schema {header.get('schema')!r}; "
                f"expected {TRACE_SCHEMA!r}")
        if header.get("version") != SCHEMA_VERSION:
            raise ValueError(
                f"trace file {path} has version {header.get('version')!r}; "
                f"this build reads version {SCHEMA_VERSION}")
        counters: list = []
        gauges: list = []
        histograms: list = []
        spans: list = []
        span_stats: list = []
        segments: list = []
        for line in lines[1:]:
            record = json.loads(line)
            kind = record.get("type")
            if kind == "counter":
                counters.append((record["name"], record["label"],
                                 record["value"]))
            elif kind == "gauge":
                gauges.append((record["name"], record["t_s"], record["value"]))
            elif kind == "histogram":
                histograms.append((record["name"], record["label"],
                                   HistogramState(record["count"],
                                                  record["total"],
                                                  record["min"], record["max"],
                                                  tuple(record["buckets"]))))
            elif kind == "span":
                spans.append(Span(record["name"], record["where"],
                                  record["t_s"], record["duration_s"],
                                  tuple(sorted(record["attrs"].items())),
                                  record["seq"]))
            elif kind == "span_stat":
                span_stats.append((record["name"], record["count"],
                                   record["total_s"]))
            elif kind == "segment":
                segments.append(SegmentUsage(
                    tuple(record["workload"]),
                    tuple(tuple(row) for row in record["assignments"]),
                    tuple(record["rates"]),
                    record["duration_s"]))
            else:
                raise ValueError(
                    f"trace file {path} has unknown record type {kind!r}")
    except (AttributeError, KeyError, TypeError) as exc:
        # A header or record that is not a JSON object, or lacks a field.
        raise ValueError(f"malformed trace file {path}: {exc!r}") from exc
    return TelemetrySnapshot(
        where=header.get("where", ""),
        max_spans=header.get("max_spans", 64),
        counters=tuple(counters),
        gauges=tuple(gauges),
        histograms=tuple(histograms),
        spans=tuple(spans),
        span_stats=tuple(span_stats),
        segments=tuple(segments),
    )


def export_segments(snapshot: TelemetrySnapshot) -> list[dict]:
    """The realized plan-usage rows of ``snapshot`` as plain dicts.

    Each row is one ``(workload, mapping, rates)`` triple with its total
    realized service seconds — the training-row shape the estimator
    fine-tuning loop consumes (realized rates as regression targets,
    ``duration_s`` as a natural sample weight).

    Rows come back sorted by ``(workload, assignments, rates,
    duration_s)`` regardless of the order segments were recorded — a
    merged snapshot's segment order depends on the merge order of its
    parts, and the fine-tuning loop's bit-identity contract needs the
    exported rows to be a pure function of the snapshot's *contents*.
    A snapshot with no segments exports ``[]``.
    """
    ordered = sorted(
        snapshot.segments,
        key=lambda u: (u.workload, u.assignments, u.rates, u.duration_s))
    return [{
        "workload": list(usage.workload),
        "assignments": [list(row) for row in usage.assignments],
        "rates": list(usage.rates),
        "duration_s": usage.duration_s,
    } for usage in ordered]
