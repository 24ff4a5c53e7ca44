"""Unit tests for the :mod:`repro.obs` telemetry subsystem.

The cross-cutting contracts — report bit-identity with the recorder on
and off, worker-count-independent merging, trace round-trips over
arbitrary op streams — live in ``tests/property/test_obs_properties.py``;
here the pieces are pinned individually: registry validation, histogram
bucketing, span retention, segment aggregation, merge semantics, the
JSONL export format, and the ``tools/trace_summary.py`` CLI.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import (HISTOGRAM_EDGES, METRICS, NULL_RECORDER,
                       SCHEMA_VERSION, SPANS, TelemetryRecorder,
                       export_segments, merge_snapshots, read_trace,
                       write_trace)
from repro.obs.registry import (ADMISSION_VERDICT, COUNTER, GAUGE, HISTOGRAM,
                                LIVE_SESSIONS, QUEUE_DEPTH, QUEUE_WAIT_S,
                                REPLAN_DECISION_S, SPAN_REPLAN)

REPO_ROOT = Path(__file__).resolve().parents[1]

SEG_KEY = (("alexnet",), ((0, 0, 1),), (2.5,))


def _load_trace_summary():
    spec = importlib.util.spec_from_file_location(
        "trace_summary", REPO_ROOT / "tools" / "trace_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegistry:
    def test_every_metric_is_self_describing(self):
        for name, metric in METRICS.items():
            assert metric.name == name
            assert metric.kind in (COUNTER, GAUGE, HISTOGRAM)
            assert metric.description

    def test_span_names_disjoint_from_metrics(self):
        assert not SPANS & set(METRICS)

    def test_unregistered_metric_rejected(self):
        recorder = TelemetryRecorder()
        with pytest.raises(KeyError):
            recorder.count("no.such.metric")
        with pytest.raises(KeyError):
            recorder.span("no.such.span", 0.0, 0.0)

    def test_kind_mismatch_rejected(self):
        recorder = TelemetryRecorder()
        with pytest.raises(TypeError):
            recorder.count(QUEUE_DEPTH)          # a gauge
        with pytest.raises(TypeError):
            recorder.observe(ADMISSION_VERDICT, 1.0)   # a counter
        with pytest.raises(TypeError):
            recorder.gauge(QUEUE_WAIT_S, 0.0, 1.0)     # a histogram


class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.count(ADMISSION_VERDICT)
        NULL_RECORDER.gauge(QUEUE_DEPTH, 0.0, 1.0)
        NULL_RECORDER.observe(QUEUE_WAIT_S, 1.0)
        NULL_RECORDER.span(SPAN_REPLAN, 0.0, 0.1)
        NULL_RECORDER.segment(SEG_KEY, 1.0)
        assert NULL_RECORDER.snapshot() is None


class TestTelemetryRecorder:
    def test_counters_accumulate_by_label(self):
        recorder = TelemetryRecorder()
        recorder.count(ADMISSION_VERDICT, label="gold/admit")
        recorder.count(ADMISSION_VERDICT, 2.0, label="gold/admit")
        recorder.count(ADMISSION_VERDICT, label="bronze/reject")
        snap = recorder.snapshot()
        assert snap.counter(ADMISSION_VERDICT, "gold/admit") == 3.0
        assert snap.counter_total(ADMISSION_VERDICT) == 4.0
        assert snap.counter(ADMISSION_VERDICT, "absent") == 0.0

    def test_gauge_last_write_wins(self):
        recorder = TelemetryRecorder()
        recorder.gauge(LIVE_SESSIONS, 1.0, 3.0)
        recorder.gauge(LIVE_SESSIONS, 2.0, 1.0)
        assert recorder.snapshot().gauge_value(LIVE_SESSIONS) == 1.0
        assert recorder.snapshot().gauge_value(QUEUE_DEPTH) is None

    def test_histogram_bucketing_and_stats(self):
        recorder = TelemetryRecorder()
        values = [1e-5, 1e-4, 0.5, 3.0, 1e5]    # below, first edge,
        for v in values:                        # interior x2, above
            recorder.observe(QUEUE_WAIT_S, v)
        ((name, label, state),) = recorder.snapshot().histograms
        assert (name, label) == (QUEUE_WAIT_S, "")
        assert state.count == 5
        assert state.total == pytest.approx(sum(values))
        assert (state.min_value, state.max_value) == (1e-5, 1e5)
        assert len(state.buckets) == len(HISTOGRAM_EDGES) + 1
        assert sum(state.buckets) == 5
        assert state.buckets[0] == 2        # 1e-5 and the 1e-4 edge itself
        assert state.buckets[-1] == 1       # 1e5 overflows the ladder

    def test_span_retention_keeps_slowest(self):
        recorder = TelemetryRecorder(where="w", max_spans=3)
        for i in range(200):
            recorder.span(SPAN_REPLAN, float(i), 0.01 * (i % 7),
                          {"kind": "full"})
        snap = recorder.snapshot()
        assert len(snap.spans) == 3
        assert all(s.duration_s == 0.06 for s in snap.spans)
        assert [s.t_s for s in snap.spans] == [6.0, 13.0, 20.0]
        # Exact totals survive retention.
        ((name, count, total),) = snap.span_stats
        assert (name, count) == (SPAN_REPLAN, 200)
        assert total == pytest.approx(sum(0.01 * (i % 7)
                                          for i in range(200)))

    def test_segments_aggregate_by_plan(self):
        recorder = TelemetryRecorder()
        other = (("alexnet", "mobilenet"), ((0, 0, 1), (1, 1, 0)), (2.0, 1.0))
        recorder.segment(SEG_KEY, 2.0)
        recorder.segment(other, 1.5)
        recorder.segment(SEG_KEY, 3.0)
        recorder.segment(None, 99.0)        # no deployed mapping: skipped
        recorder.segment(SEG_KEY, 0.0)      # zero-length: skipped
        snap = recorder.snapshot()
        assert len(snap.segments) == 2
        by_key = {(s.workload, s.assignments, s.rates): s.duration_s
                  for s in snap.segments}
        assert by_key[SEG_KEY] == 5.0
        assert by_key[other] == 1.5
        exported = export_segments(snap)
        assert {tuple(e["workload"]) for e in exported} \
            == {("alexnet",), ("alexnet", "mobilenet")}
        assert all(set(e) == {"workload", "assignments", "rates",
                              "duration_s"} for e in exported)

    def test_snapshot_is_picklable_and_comparable(self):
        import pickle
        recorder = TelemetryRecorder(where="node0")
        recorder.count(ADMISSION_VERDICT, label="gold/admit")
        recorder.span(SPAN_REPLAN, 1.0, 0.04, {"kind": "warm"})
        snap = recorder.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap == recorder.snapshot()


class TestMerge:
    def test_merge_sums_and_resolves_gauges(self):
        a, b = TelemetryRecorder(where="a"), TelemetryRecorder(where="b")
        a.count(ADMISSION_VERDICT, label="gold/admit")
        b.count(ADMISSION_VERDICT, 2.0, label="gold/admit")
        a.gauge(LIVE_SESSIONS, 5.0, 2.0)
        b.gauge(LIVE_SESSIONS, 3.0, 9.0)    # earlier: loses
        a.observe(REPLAN_DECISION_S, 0.04)
        b.observe(REPLAN_DECISION_S, 0.05)
        a.segment(SEG_KEY, 1.0)
        b.segment(SEG_KEY, 2.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()], where="fleet")
        assert merged.where == "fleet"
        assert merged.counter(ADMISSION_VERDICT, "gold/admit") == 3.0
        assert merged.gauge_value(LIVE_SESSIONS) == 2.0
        ((_, _, hist),) = merged.histograms
        assert hist.count == 2
        assert merged.segments[0].duration_s == 3.0

    def test_gauge_tie_later_snapshot_wins(self):
        a, b = TelemetryRecorder(where="a"), TelemetryRecorder(where="b")
        a.gauge(LIVE_SESSIONS, 4.0, 1.0)
        b.gauge(LIVE_SESSIONS, 4.0, 7.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.gauge_value(LIVE_SESSIONS) == 7.0

    def test_merge_order_is_callers_order(self):
        """The fold is input-ordered — the determinism the runner relies
        on when it passes node snapshots in fleet order."""
        a, b = TelemetryRecorder(where="a"), TelemetryRecorder(where="b")
        a.span(SPAN_REPLAN, 1.0, 0.04)
        b.span(SPAN_REPLAN, 1.0, 0.04)
        ab = merge_snapshots([a.snapshot(), b.snapshot()], where="m")
        ab2 = merge_snapshots([a.snapshot(), b.snapshot()], where="m")
        assert ab == ab2
        assert [s.where for s in ab.spans] == ["a", "b"]


class TestExport:
    def test_header_carries_schema_and_version(self, tmp_path):
        recorder = TelemetryRecorder(where="x")
        recorder.count(ADMISSION_VERDICT, label="gold/admit")
        path = tmp_path / "t.jsonl"
        count = write_trace(recorder.snapshot(), path)
        lines = path.read_text().strip().split("\n")
        assert count == len(lines) - 1      # header excluded from the count
        header = json.loads(lines[0])
        assert header["schema"] == "repro.obs.trace"
        assert header["version"] == SCHEMA_VERSION
        assert all("type" in json.loads(line) for line in lines[1:])

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "other", "version": 1}) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)
        path.write_text(json.dumps(
            {"schema": "repro.obs.trace", "version": SCHEMA_VERSION + 1,
             "where": "", "max_spans": 64}) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)
        path.write_text("")
        with pytest.raises(ValueError):
            read_trace(path)
        # Malformed headers and records: a record missing a field, a
        # record and a header that are not JSON objects.
        header = json.dumps({"schema": "repro.obs.trace",
                             "version": SCHEMA_VERSION, "where": "",
                             "max_spans": 64})
        segment = {"type": "segment", "workload": ["alexnet"],
                   "assignments": [[0]], "duration_s": 1.0}
        for text in (f"{header}\n{json.dumps(segment)}\n",
                     f"{header}\n[1, 2]\n", "[1, 2]\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="malformed trace") as info:
                read_trace(path)
            assert isinstance(info.value.__cause__,
                              (KeyError, AttributeError))

    def test_round_trip(self, tmp_path):
        recorder = TelemetryRecorder(where="rt", max_spans=8)
        recorder.count(ADMISSION_VERDICT, 3.0, label="silver/queue")
        recorder.gauge(QUEUE_DEPTH, 2.25, 4.0)
        recorder.observe(QUEUE_WAIT_S, 0.125)
        recorder.span(SPAN_REPLAN, 1.5, 0.04, {"kind": "full", "dnns": 2})
        recorder.segment(SEG_KEY, 6.5)
        snap = recorder.snapshot()
        path = tmp_path / "t.jsonl"
        write_trace(snap, path)
        assert read_trace(path) == snap


class TestTraceSummaryCli:
    def _trace(self, tmp_path):
        recorder = TelemetryRecorder(where="cli")
        for label in ("gold/admit", "gold/admit", "gold/queue",
                      "bronze/reject", "silver/preempt"):
            recorder.count(ADMISSION_VERDICT, label=label)
        recorder.span(SPAN_REPLAN, 10.0, 0.04, {"kind": "full"})
        recorder.span(SPAN_REPLAN, 20.0, 0.08, {"kind": "warm"})
        path = tmp_path / "t.jsonl"
        write_trace(recorder.snapshot(), path)
        return path

    def test_summary_sections(self, tmp_path, capsys):
        cli = _load_trace_summary()
        assert cli.main([str(self._trace(tmp_path)), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "trace from cli" in out
        assert "serve.admission.verdict" in out
        # Funnel: per-tier rows with preempt counting as admission.
        assert "gold" in out and "admit rate 67%" in out
        assert "silver" in out and "admit rate 100%" in out
        assert "bronze" in out and "admit rate 0%" in out
        # top 1 slowest span only
        assert out.count("serve.replan") == 1
        assert "kind=warm" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        cli = _load_trace_summary()
        assert cli.main([str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestExportSegments:
    """The sorted-output contract fine-tuning relies on (see
    repro.estimator.finetune): rows come back in one canonical order no
    matter how the snapshot was assembled."""

    OTHER = (("alexnet", "mobilenet"), ((0, 0, 1), (1, 1, 0)), (2.0, 1.0))

    def _recorders(self):
        a, b = TelemetryRecorder(where="a"), TelemetryRecorder(where="b")
        a.segment(self.OTHER, 1.5)
        a.segment(SEG_KEY, 2.0)
        b.segment(SEG_KEY, 3.0)
        b.segment((("squeezenet",), ((1, 0, 1),), (0.5,)), 4.0)
        return a, b

    def test_merge_order_does_not_change_export(self):
        a, b = self._recorders()
        ab = export_segments(merge_snapshots([a.snapshot(), b.snapshot()]))
        ba = export_segments(merge_snapshots([b.snapshot(), a.snapshot()]))
        assert ab == ba
        keys = [(tuple(r["workload"]),
                 tuple(tuple(row) for row in r["assignments"]),
                 tuple(r["rates"])) for r in ab]
        assert keys == sorted(keys)

    def test_recording_order_does_not_change_export(self):
        a, _ = self._recorders()
        flipped = TelemetryRecorder(where="a")
        flipped.segment(SEG_KEY, 2.0)
        flipped.segment(self.OTHER, 1.5)
        assert export_segments(a.snapshot()) \
            == export_segments(flipped.snapshot())

    def test_empty_snapshot_exports_nothing(self):
        assert export_segments(TelemetryRecorder().snapshot()) == []
