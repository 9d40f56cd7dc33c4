"""Exporters: metrics JSONL, run manifests, Chrome trace-event JSON.

A finished observed run persists as a *run directory*:

* ``metrics.jsonl`` — one line per instrument from the
  :class:`~repro.obs.hub.MetricsHub` (schema
  :data:`METRICS_SCHEMA`; first line is a ``meta`` header).
* ``manifest.json`` — what ran: scenario, params, seed, engine stats,
  wall time, and the file inventory (schema :data:`MANIFEST_SCHEMA`).
* ``trace_records.jsonl`` — raw :class:`~repro.sim.trace.TraceRecord`
  lines, when the run was traced.
* ``trace.json`` — the Chrome trace-event rendering (rendered from the
  raw records + hub series by :func:`chrome_trace_events`), viewable by
  loading into https://ui.perfetto.dev or ``chrome://tracing``.

Everything round-trips: :func:`read_metrics_jsonl` returns the same
dict shape :meth:`MetricsHub.as_dict` exports, so the health table and
the trace renderer work identically on live hubs and on files read back
later.  The ``validate_*`` helpers are the schema contract the CI obs
smoke job (and any future consumer) checks against — they return error
lists rather than raising so a check can report every problem at once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.flightrec import FLIGHT_SCHEMA
from repro.obs.hub import MetricsHub
from repro.obs.stream import EVENT_KINDS, PROGRESS_SCHEMA
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.util.jsonl import iter_jsonl_objects

#: Schema tags (bump on breaking shape changes; consumers dispatch on them).
METRICS_SCHEMA = "repro.obs/metrics@2"
MANIFEST_SCHEMA = "repro.obs/manifest@1"
TRACE_RECORDS_SCHEMA = "repro.obs/trace-records@1"

#: Run-directory file names.
METRICS_FILE = "metrics.jsonl"
MANIFEST_FILE = "manifest.json"
TRACE_RECORDS_FILE = "trace_records.jsonl"
CHROME_TRACE_FILE = "trace.json"

#: Instrument kinds a metrics line may carry.
METRIC_KINDS = ("meta", "counter", "gauge", "ewma", "histogram", "series")

#: Chrome trace-event phases this exporter emits.
_TRACE_PHASES = ("M", "i", "X", "C")


# ----------------------------------------------------------------------
# Metrics JSONL
# ----------------------------------------------------------------------
def metrics_lines(hub: MetricsHub) -> list[dict[str, Any]]:
    """The hub's instruments as JSON-safe line dicts (header first)."""
    lines: list[dict[str, Any]] = [{
        "kind": "meta",
        "schema": METRICS_SCHEMA,
        "name": hub.name,
        "labels": hub.labels,
    }]
    for kind, name, instrument in hub.iter_instruments():
        if kind == "counter":
            lines.append({"kind": kind, "name": name, "value": instrument.value})
        elif kind == "gauge":
            lines.append({"kind": kind, "name": name, "value": instrument.value})
        elif kind == "ewma":
            lines.append({
                "kind": kind, "name": name, "value": instrument.value,
                "alpha": instrument.alpha,
                "observations": instrument.observations,
            })
        elif kind == "histogram":
            lines.append({"kind": kind, "name": name, **instrument.as_dict()})
        else:  # series
            lines.append({
                "kind": kind, "name": name,
                "samples": [list(sample) for sample in instrument.samples],
            })
    return lines


def write_metrics_jsonl(hub: MetricsHub, path: str | Path) -> Path:
    """Write the hub's metrics file; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for line in metrics_lines(hub):
            handle.write(json.dumps(line, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    return path


def read_metrics_lines(
    path: str | Path, errors: list[str] | None = None
) -> list[dict[str, Any]]:
    """Read a metrics file's line dicts, salvaging torn lines.

    The same salvage-and-skip walk the result store heals with: a
    truncated tail (a ``kill -9`` mid-export, a filled disk) costs the
    torn line only, and every complete line still parses.  ``errors``
    collects one message per torn line, so callers can report damage
    without refusing the file.
    """
    if not Path(path).exists():
        raise FileNotFoundError(path)
    lines: list[dict[str, Any]] = []
    for data in iter_jsonl_objects(path, errors=errors):
        if isinstance(data, Mapping):
            lines.append(dict(data))
        elif errors is not None:
            errors.append(f"{path}: skipping non-object line")
    return lines


def read_metrics_jsonl(path: str | Path) -> dict[str, Any]:
    """Read a metrics file back into the ``MetricsHub.as_dict`` shape.

    Tolerant of torn tails (see :func:`read_metrics_lines`): the
    salvageable instruments load, the torn fragment is dropped.
    """
    export: dict[str, Any] = {
        "name": "", "labels": [], "counters": {}, "gauges": {},
        "ewmas": {}, "histograms": {}, "series": {},
    }
    for data in read_metrics_lines(path):
        kind = data.get("kind")
        if kind == "meta":
            export["name"] = data.get("name", "")
            export["labels"] = list(data.get("labels", ()))
        elif kind == "counter":
            export["counters"][data["name"]] = data["value"]
        elif kind == "gauge":
            export["gauges"][data["name"]] = data["value"]
        elif kind == "ewma":
            export["ewmas"][data["name"]] = {
                "value": data["value"], "alpha": data["alpha"],
                "observations": data["observations"],
            }
        elif kind == "histogram":
            export["histograms"][data["name"]] = {
                key: value for key, value in data.items()
                if key not in ("kind", "name")
            }
        elif kind == "series":
            export["series"][data["name"]] = [
                tuple(sample) for sample in data["samples"]
            ]
    return export


def validate_metrics_lines(lines: Iterable[Mapping[str, Any]]) -> list[str]:
    """Schema-check metric lines; returns error strings (empty = valid)."""
    errors: list[str] = []
    saw_meta = False
    for index, line in enumerate(lines):
        where = f"line {index}"
        kind = line.get("kind")
        if kind not in METRIC_KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        if kind == "meta":
            if index != 0:
                errors.append(f"{where}: meta header must be the first line")
            if line.get("schema") != METRICS_SCHEMA:
                errors.append(
                    f"{where}: schema {line.get('schema')!r} != {METRICS_SCHEMA!r}"
                )
            saw_meta = True
            continue
        if not isinstance(line.get("name"), str) or not line["name"]:
            errors.append(f"{where}: missing instrument name")
        if kind in ("counter", "gauge", "ewma"):
            if not isinstance(line.get("value"), (int, float)):
                errors.append(f"{where}: {kind} needs a numeric value")
        if kind == "ewma" and not isinstance(line.get("alpha"), (int, float)):
            errors.append(f"{where}: ewma needs its alpha")
        if kind == "histogram":
            if not isinstance(line.get("count"), int):
                errors.append(f"{where}: histogram needs an integer count")
            if not isinstance(line.get("buckets"), dict):
                errors.append(f"{where}: histogram needs a buckets dict")
        if kind == "series":
            samples = line.get("samples")
            if not isinstance(samples, list):
                errors.append(f"{where}: series needs a samples list")
            else:
                for sample in samples:
                    if (not isinstance(sample, (list, tuple))
                            or len(sample) != 2):
                        errors.append(
                            f"{where}: series samples must be [time, value] "
                            "pairs"
                        )
                        break
    if not saw_meta:
        errors.append("missing meta header line")
    return errors


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
def build_manifest(
    name: str,
    scenario: str | None = None,
    params: Mapping[str, Any] | None = None,
    seed: int | None = None,
    engine_stats: Mapping[str, Any] | None = None,
    wall_time: float | None = None,
    files: Iterable[str] = (),
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The run manifest dict (schema :data:`MANIFEST_SCHEMA`)."""
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "name": name,
        "files": sorted(files),
    }
    if scenario is not None:
        manifest["scenario"] = scenario
    if params is not None:
        manifest["params"] = dict(params)
    if seed is not None:
        manifest["seed"] = seed
    if engine_stats is not None:
        manifest["engine"] = dict(engine_stats)
    if wall_time is not None:
        manifest["wall_time"] = wall_time
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(manifest: Mapping[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def read_manifest(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_manifest(manifest: Mapping[str, Any]) -> list[str]:
    errors: list[str] = []
    if manifest.get("schema") != MANIFEST_SCHEMA:
        errors.append(
            f"schema {manifest.get('schema')!r} != {MANIFEST_SCHEMA!r}"
        )
    if not isinstance(manifest.get("name"), str):
        errors.append("manifest needs a string name")
    if not isinstance(manifest.get("files"), list):
        errors.append("manifest needs a files list")
    return errors


# ----------------------------------------------------------------------
# Progress ledger and flight dumps (the streaming telemetry artifacts)
# ----------------------------------------------------------------------
#: Event kinds that must name the task they concern.
_TASK_SCOPED_KINDS = ("task_started", "task_finished", "task_errored")


def validate_progress_lines(
    lines: Iterable[Mapping[str, Any]],
) -> list[str]:
    """Schema-check progress-ledger lines (``repro.obs/progress@1``).

    Accepts the dicts :func:`repro.util.jsonl.iter_jsonl_objects` yields
    from a ``progress.jsonl`` — live, finished, or salvaged from a
    killed run.  Returns error strings (empty = valid).
    """
    errors: list[str] = []
    saw_start = False
    for index, line in enumerate(lines):
        where = f"line {index}"
        kind = line.get("kind")
        if kind not in EVENT_KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        if not isinstance(line.get("time"), (int, float)):
            errors.append(f"{where}: needs a numeric time")
        if kind == "campaign_started":
            saw_start = True
            if line.get("schema") != PROGRESS_SCHEMA:
                errors.append(
                    f"{where}: schema {line.get('schema')!r} != "
                    f"{PROGRESS_SCHEMA!r}"
                )
        elif not saw_start:
            errors.append(f"{where}: {kind} before any campaign_started")
            saw_start = True  # report the ordering break once
        if kind in _TASK_SCOPED_KINDS:
            task_id = line.get("task_id")
            if not isinstance(task_id, str) or not task_id:
                errors.append(f"{where}: {kind} needs a task_id")
        data = line.get("data")
        if data is not None and not isinstance(data, Mapping):
            errors.append(f"{where}: data must be an object")
    return errors


def validate_progress_file(path: str | Path) -> list[str]:
    """Validate a ledger file on disk, torn lines included.

    Torn-line salvage messages are *reported* alongside schema errors
    but a salvaged file whose surviving lines validate returns only
    those salvage notes — callers distinguish damage from invalidity by
    the message text, same as the store's heal report.
    """
    errors: list[str] = []
    lines = [
        data for data in iter_jsonl_objects(path, errors=errors)
        if isinstance(data, Mapping)
    ]
    errors.extend(validate_progress_lines(lines))
    return errors


def validate_flight_dump(dump: Mapping[str, Any]) -> list[str]:
    """Schema-check a flight-recorder dump (``repro.obs/flight@1``)."""
    errors: list[str] = []
    if dump.get("schema") != FLIGHT_SCHEMA:
        errors.append(
            f"schema {dump.get('schema')!r} != {FLIGHT_SCHEMA!r}"
        )
    if not isinstance(dump.get("worker"), str) or not dump.get("worker"):
        errors.append("flight dump needs a worker name")
    if not isinstance(dump.get("reason"), str) or not dump.get("reason"):
        errors.append("flight dump needs a reason")
    events = dump.get("events")
    if not isinstance(events, list):
        errors.append("flight dump needs an events list")
        events = []
    for index, event in enumerate(events):
        if not isinstance(event, Mapping) or "kind" not in event:
            errors.append(f"event {index}: needs a kind")
    recorded = dump.get("recorded")
    if not isinstance(recorded, int) or recorded < len(events):
        errors.append("recorded must be an int >= len(events)")
    dropped = dump.get("dropped")
    if not isinstance(dropped, int) or dropped < 0:
        errors.append("dropped must be a non-negative int")
    if not isinstance(dump.get("resources"), Mapping):
        errors.append("flight dump needs a resources object")
    return errors


# ----------------------------------------------------------------------
# Raw trace records
# ----------------------------------------------------------------------
def write_trace_records(trace: TraceRecorder, path: str | Path) -> Path:
    """Persist the recorder's records as JSONL (header line first)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        header = {"schema": TRACE_RECORDS_SCHEMA, "dropped": trace.dropped}
        handle.write(json.dumps(header, sort_keys=True,
                                separators=(",", ":")) + "\n")
        for record in trace:
            line = {
                "time": record.time, "source": record.source,
                "kind": record.kind, "detail": record.detail,
            }
            handle.write(json.dumps(line, sort_keys=True, default=repr,
                                    separators=(",", ":")) + "\n")
    return path


def read_trace_records(path: str | Path) -> list[TraceRecord]:
    """Read a trace-records file back (header line skipped)."""
    records: list[TraceRecord] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        if "schema" in data:
            continue
        records.append(TraceRecord(
            time=data["time"], source=data["source"], kind=data["kind"],
            detail=dict(data.get("detail", {})),
        ))
    return records


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------
def chrome_trace_events(
    records: Iterable[TraceRecord] = (),
    export: Mapping[str, Any] | None = None,
    pid: int = 1,
) -> list[dict[str, Any]]:
    """Render records + hub series into Chrome trace-event dicts.

    Mapping (timestamps are microseconds, the format's unit):

    * each trace source becomes a named thread (``M`` metadata events);
    * every :class:`TraceRecord` is a thread-scoped instant (``i``);
    * ``reset`` .. ``resume`` pairs on one source additionally become a
      ``recovery`` duration span (``X``) so outages are visible bars;
    * every hub time series becomes a counter track (``C``) — this is
      how the sampler's loss/queue/latency series render as graphs.
    """
    records = list(records)
    sources: list[str] = []
    for record in records:
        if record.source not in sources:
            sources.append(record.source)
    tids = {source: index + 1 for index, source in enumerate(sources)}

    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "repro simulation"},
    }]
    for source, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": source},
        })

    open_resets: dict[str, float] = {}
    for record in records:
        ts = record.time * 1e6
        tid = tids[record.source]
        events.append({
            "name": record.kind, "cat": "trace", "ph": "i", "s": "t",
            "ts": ts, "pid": pid, "tid": tid,
            "args": {key: _json_safe(value)
                     for key, value in record.detail.items()},
        })
        if record.kind == "reset":
            open_resets[record.source] = ts
        elif record.kind == "resume" and record.source in open_resets:
            start = open_resets.pop(record.source)
            events.append({
                "name": "recovery", "cat": "recovery", "ph": "X",
                "ts": start, "dur": ts - start, "pid": pid, "tid": tid,
                "args": {},
            })

    if export is not None:
        for name, samples in sorted(export.get("series", {}).items()):
            for time, value in samples:
                events.append({
                    "name": name, "cat": "metrics", "ph": "C",
                    "ts": time * 1e6, "pid": pid,
                    "args": {"value": value},
                })

    events.sort(key=lambda event: (event["ph"] != "M", event.get("ts", 0.0)))
    return events


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def write_chrome_trace(
    events: list[dict[str, Any]], path: str | Path
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    path.write_text(json.dumps(document, sort_keys=True,
                               separators=(",", ":")) + "\n",
                    encoding="utf-8")
    return path


def validate_trace_events(document: Mapping[str, Any]) -> list[str]:
    """Schema-check a Chrome trace document (the ``trace.json`` shape)."""
    errors: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document needs a traceEvents list"]
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _TRACE_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: missing integer pid")
        if phase == "M":
            continue  # metadata needs no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: needs a non-negative ts")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs a non-negative dur")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(value, (int, float)) for value in args.values()
            ):
                errors.append(f"{where}: C event needs numeric args")
        if phase == "i" and event.get("s") not in ("g", "p", "t"):
            errors.append(f"{where}: i event needs scope s in g/p/t")
    return errors


# ----------------------------------------------------------------------
# Run directories
# ----------------------------------------------------------------------
def export_run(
    out_dir: str | Path,
    hub: MetricsHub,
    trace: TraceRecorder | None = None,
    manifest_extra: Mapping[str, Any] | None = None,
    name: str = "run",
    **manifest_fields: Any,
) -> Path:
    """Write a complete run directory; returns its path.

    Emits ``metrics.jsonl``, ``trace_records.jsonl`` (when ``trace``
    holds records), and ``manifest.json`` listing what was written.  The
    Chrome trace is rendered on demand by :func:`render_run_trace` (the
    ``obs`` CLI's summarize step) rather than here, so fleet-scale runs
    do not pay for a rendering nobody asked for.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [METRICS_FILE]
    write_metrics_jsonl(hub, out_dir / METRICS_FILE)
    if trace is not None and len(trace):
        write_trace_records(trace, out_dir / TRACE_RECORDS_FILE)
        files.append(TRACE_RECORDS_FILE)
    manifest = build_manifest(
        name=name, files=files, extra=manifest_extra, **manifest_fields
    )
    write_manifest(manifest, out_dir / MANIFEST_FILE)
    return out_dir


def render_run_trace(run_dir: str | Path) -> Path | None:
    """Render ``trace.json`` for a run directory (None without metrics).

    Uses whatever the directory has: raw trace records, hub series, or
    both.  Idempotent — re-rendering overwrites.
    """
    run_dir = Path(run_dir)
    metrics_path = run_dir / METRICS_FILE
    records_path = run_dir / TRACE_RECORDS_FILE
    if not metrics_path.exists() and not records_path.exists():
        return None
    export = read_metrics_jsonl(metrics_path) if metrics_path.exists() else None
    records = read_trace_records(records_path) if records_path.exists() else []
    events = chrome_trace_events(records, export=export)
    return write_chrome_trace(events, run_dir / CHROME_TRACE_FILE)
