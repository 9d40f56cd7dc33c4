"""Tests for repro.obs.export — files, round-trips, and the schema contract.

The ``validate_*`` helpers are what the CI obs smoke job trusts, so both
the pass path and every rejection branch are pinned here.
"""

import json

import pytest

from repro.obs.export import (
    CHROME_TRACE_FILE,
    MANIFEST_FILE,
    MANIFEST_SCHEMA,
    METRICS_FILE,
    METRICS_SCHEMA,
    TRACE_RECORDS_FILE,
    build_manifest,
    chrome_trace_events,
    export_run,
    metrics_lines,
    read_manifest,
    read_metrics_jsonl,
    read_metrics_lines,
    read_trace_records,
    render_run_trace,
    validate_manifest,
    validate_metrics_lines,
    validate_progress_file,
    validate_progress_lines,
    validate_trace_events,
    write_chrome_trace,
    write_manifest,
    write_metrics_jsonl,
    write_trace_records,
)
from repro.obs.hub import MetricsHub
from repro.sim.trace import TraceRecorder


def populated_hub() -> MetricsHub:
    hub = MetricsHub("export-test")
    sa = hub.sub("sa0")
    sa.counter("replay_discards").inc(3)
    sa.gauge("save_queue_depth").set(2.0)
    sa.ewma("loss_ewma").observe(0.125)
    sa.histogram("recovery_latency").observe(3e-4)
    sa.series("loss_ewma").sample(1e-3, 0.125)
    hub.counter("resets").inc()
    return hub


def recorded_trace() -> TraceRecorder:
    trace = TraceRecorder()
    trace.record(0.0, "p", "send", seq=1)
    trace.record(1e-4, "p", "reset")
    trace.record(3e-4, "p", "resume")
    trace.record(4e-4, "q", "deliver", seq=1)
    return trace


class TestMetricsJsonl:
    def test_header_first_then_one_line_per_instrument(self):
        lines = metrics_lines(populated_hub())
        assert lines[0]["kind"] == "meta"
        assert lines[0]["schema"] == METRICS_SCHEMA
        assert lines[0]["labels"] == ["sa0"]
        kinds = [line["kind"] for line in lines[1:]]
        assert set(kinds) == {"counter", "gauge", "ewma", "histogram", "series"}

    def test_round_trip_matches_as_dict(self, tmp_path):
        hub = populated_hub()
        path = write_metrics_jsonl(hub, tmp_path / METRICS_FILE)
        read_back = read_metrics_jsonl(path)
        exported = hub.as_dict()
        assert read_back["name"] == exported["name"]
        assert read_back["labels"] == exported["labels"]
        assert read_back["counters"] == exported["counters"]
        assert read_back["gauges"] == exported["gauges"]
        assert read_back["ewmas"] == exported["ewmas"]
        assert read_back["histograms"] == exported["histograms"]
        assert {name: [list(sample) for sample in samples]
                for name, samples in read_back["series"].items()} == exported["series"]

    def test_writes_nested_parent_dirs(self, tmp_path):
        # Fleet task IDs contain "/" — the writer must create the subdirs.
        path = write_metrics_jsonl(
            populated_hub(), tmp_path / "obs" / "grid0" / "t1.metrics.jsonl"
        )
        assert path.exists()

    def test_validate_accepts_real_lines(self):
        assert validate_metrics_lines(metrics_lines(populated_hub())) == []

    def test_validate_rejects_missing_meta(self):
        errors = validate_metrics_lines(
            [{"kind": "counter", "name": "x", "value": 1}]
        )
        assert any("meta" in error for error in errors)

    def test_validate_rejects_wrong_schema(self):
        errors = validate_metrics_lines([{"kind": "meta", "schema": "bogus@9"}])
        assert any(METRICS_SCHEMA in error for error in errors)

    def test_validate_rejects_metrics_v1_header(self):
        # metrics@1 histograms hold one bucket per octave; the sketch
        # reads bucket indices at eight per octave.
        lines = metrics_lines(populated_hub())
        lines[0]["schema"] = "repro.obs/metrics@1"
        errors = validate_metrics_lines(lines)
        assert any("repro.obs/metrics@1" in error for error in errors)

    def test_validate_rejects_misplaced_meta(self):
        lines = metrics_lines(populated_hub())
        errors = validate_metrics_lines(lines[1:] + lines[:1])
        assert any("first line" in error for error in errors)

    def test_validate_rejects_unknown_kind(self):
        lines = metrics_lines(populated_hub()) + [{"kind": "sparkline"}]
        assert any("unknown kind" in e for e in validate_metrics_lines(lines))

    def test_validate_rejects_bad_values(self):
        lines = metrics_lines(populated_hub()) + [
            {"kind": "counter", "name": "x", "value": "three"},
            {"kind": "ewma", "name": "y", "value": 0.5},
            {"kind": "histogram", "name": "z", "count": "many", "buckets": []},
            {"kind": "series", "name": "w", "samples": [[1.0]]},
            {"kind": "gauge", "name": "", "value": 0.0},
        ]
        errors = validate_metrics_lines(lines)
        assert any("numeric value" in error for error in errors)
        assert any("alpha" in error for error in errors)
        assert any("integer count" in error for error in errors)
        assert any("buckets dict" in error for error in errors)
        assert any("[time, value]" in error for error in errors)
        assert any("instrument name" in error for error in errors)


class TestReadMetricsLines:
    def write_metrics(self, tmp_path):
        return write_metrics_jsonl(populated_hub(), tmp_path / METRICS_FILE)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_metrics_lines(tmp_path / METRICS_FILE)

    def test_clean_file_reads_without_notes(self, tmp_path):
        path = self.write_metrics(tmp_path)
        notes: list[str] = []
        lines = read_metrics_lines(path, errors=notes)
        assert notes == []
        assert lines == metrics_lines(populated_hub())

    def test_torn_tail_salvaged_with_note(self, tmp_path):
        # A kill -9 mid-export tears the last line; every complete line
        # must survive and the damage must be reported, not fatal.
        path = self.write_metrics(tmp_path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-20])
        notes: list[str] = []
        lines = read_metrics_lines(path, errors=notes)
        assert len(lines) == len(metrics_lines(populated_hub())) - 1
        assert any("torn line" in note for note in notes)

    def test_non_object_line_skipped_with_note(self, tmp_path):
        path = self.write_metrics(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("[1, 2, 3]\n")
        notes: list[str] = []
        lines = read_metrics_lines(path, errors=notes)
        assert lines == metrics_lines(populated_hub())
        assert any("non-object" in note for note in notes)

    def test_torn_file_still_validates_surviving_lines(self, tmp_path):
        # The CLI obs --check path: salvage notes are warnings, schema
        # errors are failures, and a torn tail alone produces neither.
        path = self.write_metrics(tmp_path)
        path.write_bytes(path.read_bytes()[:-20])
        assert validate_metrics_lines(read_metrics_lines(path)) == []

    def test_read_metrics_jsonl_tolerates_torn_tail(self, tmp_path):
        path = self.write_metrics(tmp_path)
        path.write_bytes(path.read_bytes()[:-20])
        export = read_metrics_jsonl(path)
        assert export["name"] == "export-test"
        # The torn instrument is gone; the salvaged ones loaded.
        full = populated_hub().as_dict()
        for group in ("counters", "gauges", "ewmas"):
            for name, value in export[group].items():
                assert full[group][name] == value


def progress_lines(tasks=2):
    from repro.obs.stream import PROGRESS_SCHEMA

    lines = [{"kind": "campaign_started", "time": 0.0,
              "schema": PROGRESS_SCHEMA,
              "data": {"campaign": "demo", "total": tasks}}]
    for index in range(tasks):
        lines.append({"kind": "task_started", "time": 1.0 + index,
                      "worker": "w1", "task_id": f"t{index}"})
        lines.append({"kind": "task_finished", "time": 1.5 + index,
                      "task_id": f"t{index}", "data": {"wall_time": 0.5}})
    lines.append({"kind": "campaign_finished", "time": 9.0,
                  "data": {"executed": tasks}})
    return lines


class TestValidateProgress:
    def test_accepts_well_formed_sequence(self):
        assert validate_progress_lines(progress_lines()) == []

    def test_rejects_unknown_kind(self):
        lines = progress_lines() + [{"kind": "task_retried", "time": 10.0}]
        errors = validate_progress_lines(lines)
        assert any("unknown kind 'task_retried'" in e for e in errors)

    def test_rejects_missing_schema_tag(self):
        lines = progress_lines()
        del lines[0]["schema"]
        errors = validate_progress_lines(lines)
        assert any("schema None" in e for e in errors)

    def test_rejects_events_before_campaign_started(self):
        lines = progress_lines()[1:]
        errors = validate_progress_lines(lines)
        # The ordering break is reported once, not per line.
        assert len([e for e in errors if "before any" in e]) == 1

    def test_task_scoped_kinds_need_task_id(self):
        for kind in ("task_started", "task_finished", "task_errored"):
            lines = progress_lines() + [{"kind": kind, "time": 10.0}]
            errors = validate_progress_lines(lines)
            assert any(f"{kind} needs a task_id" in e for e in errors)

    def test_rejects_non_numeric_time_and_non_object_data(self):
        lines = progress_lines()
        lines[1]["time"] = "noon"
        lines[2]["data"] = ["not", "an", "object"]
        errors = validate_progress_lines(lines)
        assert any("numeric time" in e for e in errors)
        assert any("data must be an object" in e for e in errors)

    def write_ledger(self, tmp_path, lines):
        path = tmp_path / "progress.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        return path

    def test_file_validates_clean_ledger(self, tmp_path):
        path = self.write_ledger(tmp_path, progress_lines())
        assert validate_progress_file(path) == []

    def test_torn_ledger_reports_salvage_not_schema_errors(self, tmp_path):
        # A SIGKILLed run's ledger: the torn tail line becomes a salvage
        # note; the surviving lines still pass the schema check.
        path = self.write_ledger(tmp_path, progress_lines())
        path.write_bytes(path.read_bytes()[:-15])
        errors = validate_progress_file(path)
        assert errors
        assert all("torn line" in e for e in errors)

    def test_file_reports_schema_breaks(self, tmp_path):
        lines = progress_lines() + [{"kind": "mystery", "time": 99.0}]
        path = self.write_ledger(tmp_path, lines)
        assert any("unknown kind" in e for e in validate_progress_file(path))


class TestManifest:
    def test_build_and_validate(self):
        manifest = build_manifest(
            "run", scenario="gateway_crash", params={"n_sas": 4}, seed=2003,
            engine_stats={"events_processed": 100}, wall_time=0.5,
            files=[METRICS_FILE],
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["files"] == [METRICS_FILE]
        assert validate_manifest(manifest) == []

    def test_round_trip(self, tmp_path):
        manifest = build_manifest("run", files=[METRICS_FILE], extra={"note": 1})
        path = write_manifest(manifest, tmp_path / MANIFEST_FILE)
        assert read_manifest(path) == manifest

    def test_validate_rejects_bad_shapes(self):
        assert validate_manifest({}) != []
        errors = validate_manifest({"schema": MANIFEST_SCHEMA, "name": 3,
                                    "files": "metrics.jsonl"})
        assert any("string name" in error for error in errors)
        assert any("files list" in error for error in errors)


class TestTraceRecords:
    def test_round_trip(self, tmp_path):
        trace = recorded_trace()
        path = write_trace_records(trace, tmp_path / TRACE_RECORDS_FILE)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["dropped"] == 0
        records = read_trace_records(path)
        assert len(records) == len(trace)
        assert records[0].kind == "send"
        assert records[0].detail == {"seq": 1}

    def test_dropped_count_survives(self, tmp_path):
        trace = TraceRecorder(max_records=2)
        for index in range(5):
            trace.record(index * 1e-4, "p", "send", seq=index)
        path = write_trace_records(trace, tmp_path / "t.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["dropped"] == 3


class TestChromeTrace:
    def test_sources_become_threads_and_records_instants(self):
        events = chrome_trace_events(recorded_trace())
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in metadata} == {
            "repro simulation", "p", "q",
        }
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 4
        assert instants[0]["ts"] == 0.0

    def test_reset_resume_pair_becomes_recovery_span(self):
        events = chrome_trace_events(recorded_trace())
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["name"] == "recovery"
        assert spans[0]["ts"] == pytest.approx(1e-4 * 1e6)
        assert spans[0]["dur"] == pytest.approx(2e-4 * 1e6)

    def test_hub_series_become_counter_tracks(self):
        events = chrome_trace_events(export=populated_hub().as_dict())
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and counters[0]["name"] == "sa0/loss_ewma"
        assert counters[0]["args"] == {"value": 0.125}

    def test_metadata_sorts_first_then_time(self):
        events = chrome_trace_events(
            recorded_trace(), export=populated_hub().as_dict()
        )
        phases = [e["ph"] for e in events]
        assert phases[: phases.count("M")] == ["M"] * phases.count("M")
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)

    def test_non_json_detail_values_stringified(self):
        trace = TraceRecorder()
        trace.record(0.0, "p", "send", window=object())
        events = chrome_trace_events(trace)
        instant = next(e for e in events if e["ph"] == "i")
        assert isinstance(instant["args"]["window"], str)
        json.dumps(events)  # the whole document must serialize

    def test_write_and_validate_document(self, tmp_path):
        events = chrome_trace_events(
            recorded_trace(), export=populated_hub().as_dict()
        )
        path = write_chrome_trace(events, tmp_path / CHROME_TRACE_FILE)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert validate_trace_events(document) == []

    def test_validate_rejects_bad_events(self):
        assert validate_trace_events({}) == ["document needs a traceEvents list"]
        errors = validate_trace_events({"traceEvents": [
            "not-an-object",
            {"ph": "Z", "name": "x", "pid": 1},
            {"ph": "i", "name": "x", "pid": 1, "ts": -1.0, "s": "t"},
            {"ph": "X", "name": "x", "pid": 1, "ts": 0.0, "dur": -2.0},
            {"ph": "C", "name": "x", "pid": 1, "ts": 0.0, "args": {"v": "hi"}},
            {"ph": "i", "name": "x", "pid": 1, "ts": 0.0, "s": "galaxy"},
        ]})
        assert any("not an object" in error for error in errors)
        assert any("unknown phase" in error for error in errors)
        assert any("non-negative ts" in error for error in errors)
        assert any("non-negative dur" in error for error in errors)
        assert any("numeric args" in error for error in errors)
        assert any("scope s" in error for error in errors)


class TestRunDirectories:
    def test_export_run_writes_metrics_and_manifest(self, tmp_path):
        run_dir = export_run(
            tmp_path / "run", populated_hub(), name="export-test",
            scenario="baseline", seed=7,
        )
        assert (run_dir / METRICS_FILE).exists()
        manifest = read_manifest(run_dir / MANIFEST_FILE)
        assert manifest["files"] == [METRICS_FILE]
        assert manifest["scenario"] == "baseline"
        # No Chrome trace until the summarize step asks for one.
        assert not (run_dir / CHROME_TRACE_FILE).exists()

    def test_export_run_includes_trace_when_recorded(self, tmp_path):
        run_dir = export_run(
            tmp_path / "run", populated_hub(), trace=recorded_trace(),
        )
        manifest = read_manifest(run_dir / MANIFEST_FILE)
        assert sorted(manifest["files"]) == [METRICS_FILE, TRACE_RECORDS_FILE]

    def test_empty_trace_writes_no_records_file(self, tmp_path):
        run_dir = export_run(
            tmp_path / "run", populated_hub(), trace=TraceRecorder(),
        )
        assert not (run_dir / TRACE_RECORDS_FILE).exists()

    def test_render_run_trace_uses_everything(self, tmp_path):
        run_dir = export_run(
            tmp_path / "run", populated_hub(), trace=recorded_trace(),
        )
        path = render_run_trace(run_dir)
        document = json.loads(path.read_text())
        assert validate_trace_events(document) == []
        phases = {event["ph"] for event in document["traceEvents"]}
        assert phases == {"M", "i", "X", "C"}
        # Idempotent: re-rendering overwrites cleanly.
        assert render_run_trace(run_dir) == path

    def test_render_run_trace_empty_dir_is_none(self, tmp_path):
        assert render_run_trace(tmp_path) is None
