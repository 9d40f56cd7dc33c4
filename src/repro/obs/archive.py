"""The run warehouse: append-only archive of per-run signal snapshots.

Every artifact the repo already produces — an observed run directory
(``metrics.jsonl`` + ``manifest.json``), a fleet campaign directory
(``aggregate.json`` + ``campaign_obs.json``), a pytest-benchmark
``BENCH_*.json`` with :data:`repro.perf.RATE_SCHEMA`-tagged rate reports
— reduces to one :class:`RunSnapshot` (schema :data:`RUN_SCHEMA`): a
flat table of *signals* (counters, gauges, serialized
:class:`~repro.obs.hub.QuantileSketch` histograms, capped exact sample
series) plus unhashed environment metadata (git sha, machine score,
wall time).  Snapshots are what
:mod:`repro.obs.compare` diffs and :mod:`repro.obs.trend` charts.

Layout of an archive directory::

    <root>/runs.jsonl            append-only index, one line per ingest
    <root>/runs/<run_id>/run.json   the full snapshot, content-addressed

**Content addressing.**  ``run_id`` is the SHA-256 of the canonical JSON
of ``{kind, name, signals}`` — *not* the metadata, so the same
deterministic simulation archived on two machines (different wall time,
different git sha, different machine score) hashes to the same id and
the second ingest dedups to a no-op.  This is also the durability
story's idempotence half: re-ingesting after any crash converges to the
same archive.

**Durability.**  ``add`` writes the snapshot file first (tmp +
``os.replace``) and appends the index line second, so a SIGKILL between
the two leaves a complete snapshot that the next ingest of the same run
re-indexes.  A SIGKILL *during* the index append leaves a torn tail
that :func:`repro.util.jsonl.iter_jsonl_objects` salvages around — the
same healing walk the result stores ride.

**Determinism.**  Signal extraction drops machine-dependent names
(wall time, CPU, RSS, allocation peaks — see :data:`EXCLUDED_SIGNAL_PARTS`)
so protocol/sim-time signals, which the simulator reproduces
bit-identically from a seed, are the only hashed content.  That is what
makes a committed reference snapshot diffable on any CI runner.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.export import (
    MANIFEST_FILE,
    METRICS_FILE,
    read_manifest,
    read_metrics_jsonl,
)
from repro.obs.hub import QuantileSketch, split_label
from repro.util.jsonl import iter_jsonl_objects

#: Schema tag for snapshots and index lines.  ``@2``: one distribution
#: table, every payload a :class:`QuantileSketch`.
RUN_SCHEMA = "repro.obs/run@2"

#: Archive file/dir names.
INDEX_FILE = "runs.jsonl"
RUNS_DIR = "runs"
SNAPSHOT_FILE = "run.json"

#: Snapshot kinds (what produced the signals).
KIND_OBS = "obs-run"
KIND_FLEET = "fleet-run"
KIND_BENCH = "bench"
RUN_KINDS = (KIND_OBS, KIND_FLEET, KIND_BENCH)

#: Exact sample series are kept verbatim up to this many values; longer
#: series downsample with a fixed stride (deterministic, order-stable).
SAMPLE_CAP = 512

#: A signal whose name contains any of these substrings is environment
#: noise (machine-dependent), not protocol behavior: it never enters the
#: hashed signal table, so snapshots of the same deterministic run hash
#: identically across hosts.
EXCLUDED_SIGNAL_PARTS = ("wall_time", "cpu", "rss", "malloc", "alloc_peak")


def signal_is_excluded(name: str) -> bool:
    """True for machine-dependent signal names (never hashed/diffed)."""
    return any(part in name for part in EXCLUDED_SIGNAL_PARTS)


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def downsample(values: list[float], cap: int = SAMPLE_CAP) -> list[float]:
    """Deterministic even-stride subsample preserving order (and the
    last value, so the series' endpoint survives)."""
    if len(values) <= cap:
        return list(values)
    picked = [values[(index * len(values)) // cap] for index in range(cap - 1)]
    picked.append(values[-1])
    return picked


def empty_signals() -> dict[str, Any]:
    return {"counters": {}, "gauges": {}, "histograms": {}, "samples": {}}


@dataclass
class RunSnapshot:
    """One archived run: hashed signal table + unhashed metadata.

    ``signals`` holds four tables keyed by signal name:

    * ``counters`` — monotonic event totals (int).
    * ``gauges`` — levels / percentile points (float).
    * ``histograms`` — :meth:`QuantileSketch.as_dict` payloads: the hub
      histograms and a fleet run's ``time_to_converge``.
    * ``samples`` — exact value lists (capped, see :data:`SAMPLE_CAP`).
    """

    kind: str
    name: str
    signals: dict[str, Any] = field(default_factory=empty_signals)
    meta: dict[str, Any] = field(default_factory=dict)
    sources: list[str] = field(default_factory=list)

    @property
    def run_id(self) -> str:
        return self.content_hash(self.kind, self.name, self.signals)

    @property
    def short_id(self) -> str:
        return self.run_id[:12]

    @staticmethod
    def content_hash(
        kind: str, name: str, signals: Mapping[str, Any]
    ) -> str:
        payload = _canonical({"kind": kind, "name": name, "signals": signals})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def signal_count(self) -> dict[str, int]:
        return {table: len(entries) for table, entries in self.signals.items()}

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": RUN_SCHEMA,
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "sources": list(self.sources),
            "meta": dict(self.meta),
            "signals": self.signals,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSnapshot":
        if data.get("schema") != RUN_SCHEMA:
            raise ValueError(
                f"not a {RUN_SCHEMA} snapshot (schema={data.get('schema')!r})"
            )
        signals = empty_signals()
        for table, entries in (data.get("signals") or {}).items():
            if table in signals and isinstance(entries, Mapping):
                signals[table] = dict(entries)
        snapshot = cls(
            kind=str(data.get("kind", "")),
            name=str(data.get("name", "")),
            signals=signals,
            meta=dict(data.get("meta") or {}),
            sources=[str(s) for s in data.get("sources") or ()],
        )
        recorded = data.get("run_id")
        if recorded and recorded != snapshot.run_id:
            raise ValueError(
                f"snapshot content hash mismatch: recorded {recorded[:12]}, "
                f"recomputed {snapshot.short_id} — the file was edited "
                "after archiving"
            )
        return snapshot


# ----------------------------------------------------------------------
# Extractors: repo artifacts -> RunSnapshot
# ----------------------------------------------------------------------
def _base_meta(wall_time: float | None = None) -> dict[str, Any]:
    from repro.perf import current_git_sha, machine_score

    meta: dict[str, Any] = {
        "created": time.time(),
        "machine_score": round(machine_score(), 3),
    }
    sha = current_git_sha()
    if sha:
        meta["git_sha"] = sha
    if wall_time is not None:
        meta["wall_time"] = wall_time
    return meta


def _add_scalar(
    signals: dict[str, Any], name: str, value: Any
) -> None:
    """Route a manifest/aggregate scalar into the right signal table."""
    if signal_is_excluded(name):
        return
    if isinstance(value, bool):
        signals["counters"][name] = int(value)
    elif isinstance(value, int):
        signals["counters"][name] = value
    elif isinstance(value, float) and math.isfinite(value):
        signals["gauges"][name] = value
    elif isinstance(value, list) and value and all(
        isinstance(item, (int, float)) and not isinstance(item, bool)
        and math.isfinite(item)
        for item in value
    ):
        signals["samples"][name] = downsample([float(item) for item in value])


def snapshot_from_obs_run(
    run_dir: str | Path, name: str | None = None
) -> RunSnapshot:
    """Reduce an observed-run directory (``metrics.jsonl`` +
    ``manifest.json``) to a snapshot.

    Label fan-in mirrors :meth:`MetricsHub.rollup`: counters sum across
    labels, gauges and EWMAs keep the worst (max) label, histograms
    merge bucket-wise, and series values concatenate in label order into
    capped exact sample lists.  Manifest ``metrics`` scalars land under
    ``metric/<key>``.
    """
    run_dir = Path(run_dir)
    export = read_metrics_jsonl(run_dir / METRICS_FILE)
    signals = empty_signals()

    counters: dict[str, int] = {}
    for full, value in export.get("counters", {}).items():
        base = split_label(full)[1]
        counters[base] = counters.get(base, 0) + int(value)
    worst: dict[str, float] = {}
    for full, value in export.get("gauges", {}).items():
        base = split_label(full)[1]
        worst[base] = max(worst.get(base, -math.inf), float(value))
    for full, data in export.get("ewmas", {}).items():
        base = split_label(full)[1]
        worst[base] = max(worst.get(base, -math.inf), float(data["value"]))
    merged: dict[str, QuantileSketch] = {}
    for full, data in export.get("histograms", {}).items():
        base = split_label(full)[1]
        if base not in merged:
            merged[base] = QuantileSketch()
        merged[base].merge(QuantileSketch.from_dict(data))
    series_values: dict[str, list[float]] = {}
    for full in sorted(export.get("series", {})):
        base = split_label(full)[1]
        values = [float(value) for _, value in export["series"][full]]
        series_values.setdefault(base, []).extend(values)

    for base in sorted(counters):
        if not signal_is_excluded(base):
            signals["counters"][base] = counters[base]
    for base in sorted(worst):
        if not signal_is_excluded(base):
            signals["gauges"][base] = worst[base]
    for base in sorted(merged):
        if not signal_is_excluded(base):
            signals["histograms"][base] = merged[base].as_dict()
    for base in sorted(series_values):
        if not signal_is_excluded(base):
            signals["samples"][base] = downsample(series_values[base])

    meta = _base_meta()
    sources = [METRICS_FILE]
    manifest_path = run_dir / MANIFEST_FILE
    run_name = name or export.get("name") or run_dir.name
    if manifest_path.exists():
        sources.append(MANIFEST_FILE)
        manifest = read_manifest(manifest_path)
        run_name = name or manifest.get("scenario") or run_name
        for key in ("scenario", "seed", "params"):
            if key in manifest:
                meta[key] = manifest[key]
        if "wall_time" in manifest:
            meta["wall_time"] = manifest["wall_time"]
        metrics = manifest.get("metrics")
        if isinstance(metrics, Mapping):
            for key in sorted(metrics):
                _add_scalar(signals, f"metric/{key}", metrics[key])
    return RunSnapshot(
        kind=KIND_OBS, name=str(run_name), signals=signals, meta=meta,
        sources=sources,
    )


#: ``aggregate.json`` integer totals that become counters.
_AGGREGATE_COUNTERS = (
    "tasks", "ok", "errors", "converged", "with_violations",
    "replays_accepted_total", "fresh_discarded_total",
    "lost_seqnums_total", "resets_total",
)


def snapshot_from_fleet_run(
    run_dir: str | Path, name: str | None = None
) -> RunSnapshot:
    """Reduce a fleet campaign directory (``aggregate.json`` and, when
    the campaign observed tasks, ``campaign_obs.json``) to a snapshot."""
    run_dir = Path(run_dir)
    signals = empty_signals()
    meta = _base_meta()
    sources: list[str] = []

    aggregate_path = run_dir / "aggregate.json"
    if aggregate_path.exists():
        sources.append("aggregate.json")
        aggregate = json.loads(aggregate_path.read_text(encoding="utf-8"))
        for key in _AGGREGATE_COUNTERS:
            if isinstance(aggregate.get(key), int):
                signals["counters"][key] = aggregate[key]
        for point, value in sorted(
            (aggregate.get("convergence_time") or {}).items()
        ):
            signals["gauges"][f"time_to_converge/{point}"] = float(value)
        if isinstance(aggregate.get("sketch"), Mapping):
            signals["histograms"]["time_to_converge"] = dict(
                aggregate["sketch"]
            )
        if "percentile_mode" in aggregate:
            meta["percentile_mode"] = aggregate["percentile_mode"]
        if "wall_time_total" in aggregate:
            meta["wall_time"] = aggregate["wall_time_total"]

    rollup_path = run_dir / "obs" / "campaign_obs.json"
    if not rollup_path.exists():
        rollup_path = run_dir / "campaign_obs.json"
    if rollup_path.exists():
        sources.append(str(rollup_path.relative_to(run_dir)))
        rollup = json.loads(rollup_path.read_text(encoding="utf-8"))
        for key, value in sorted((rollup.get("counters") or {}).items()):
            if not signal_is_excluded(key):
                signals["counters"][key] = (
                    signals["counters"].get(key, 0) + int(value)
                )
        for key, value in sorted((rollup.get("worst_gauges") or {}).items()):
            if not signal_is_excluded(key):
                signals["gauges"][key] = float(value)
        for key, data in sorted((rollup.get("histograms") or {}).items()):
            if not signal_is_excluded(key):
                signals["histograms"][key] = dict(data)

    if not sources:
        raise FileNotFoundError(
            f"{run_dir} has neither aggregate.json nor campaign_obs.json — "
            "not a fleet campaign directory"
        )
    return RunSnapshot(
        kind=KIND_FLEET, name=str(name or run_dir.name), signals=signals,
        meta=meta, sources=sources,
    )


def snapshot_from_bench(
    path: str | Path, name: str | None = None
) -> RunSnapshot:
    """Reduce a pytest-benchmark JSON file to a snapshot.

    Only entries carrying a :data:`repro.perf.RATE_SCHEMA`-tagged
    ``extra_info`` (the :meth:`RateReport.as_dict` provenance payload)
    contribute: the normalized rate is machine-portable, so it is the
    gauge; the raw rate and wall-clock stats are host noise and stay
    out of the hashed signal table.
    """
    from repro.perf import RATE_SCHEMA

    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    signals = empty_signals()
    meta = _base_meta()
    tagged = 0
    for entry in data.get("benchmarks", []):
        extra = entry.get("extra_info") or {}
        if extra.get("schema") != RATE_SCHEMA:
            continue
        tagged += 1
        bench = str(entry.get("name", extra.get("name", "bench")))
        if isinstance(extra.get("normalized_rate"), (int, float)):
            signals["gauges"][f"{bench}/normalized_rate"] = round(
                float(extra["normalized_rate"]), 3
            )
        if isinstance(extra.get("count"), int):
            signals["counters"][f"{bench}/count"] = extra["count"]
        if isinstance(extra.get("metric"), str):
            meta.setdefault("metrics", {})[bench] = extra["metric"]
        if extra.get("git_sha") and tagged == 1:
            # The sha captured at bench time is the provenance that
            # matters, not the checkout archiving the file later.
            meta["git_sha"] = extra["git_sha"]
        if isinstance(extra.get("machine_score"), (int, float)):
            meta["machine_score"] = extra["machine_score"]
    if not tagged:
        raise ValueError(
            f"{path} has no {RATE_SCHEMA}-tagged benchmarks — run the "
            "bench through the report_rate fixture so archives carry "
            "provenance"
        )
    return RunSnapshot(
        kind=KIND_BENCH, name=str(name or path.stem), signals=signals,
        meta=meta, sources=[path.name],
    )


def snapshot_target(
    target: str | Path, kind: str | None = None, name: str | None = None
) -> RunSnapshot:
    """Autodetect what ``target`` is and reduce it to a snapshot.

    A ``run.json`` (or any :data:`RUN_SCHEMA` JSON) loads as-is; a
    ``benchmarks``-shaped JSON is a bench; a directory with
    ``metrics.jsonl`` is an observed run; a directory with
    ``aggregate.json`` / ``campaign_obs.json`` is a fleet campaign.
    An explicit ``kind`` overrides the sniffing.
    """
    target = Path(target)
    if target.is_file():
        data = json.loads(target.read_text(encoding="utf-8"))
        if data.get("schema") == RUN_SCHEMA:
            return RunSnapshot.from_dict(data)
        if kind in (None, KIND_BENCH) and "benchmarks" in data:
            return snapshot_from_bench(target, name=name)
        raise ValueError(
            f"{target}: not a {RUN_SCHEMA} snapshot or pytest-benchmark JSON"
        )
    if not target.is_dir():
        raise FileNotFoundError(target)
    if (target / SNAPSHOT_FILE).exists() and kind is None:
        return RunSnapshot.from_dict(
            json.loads((target / SNAPSHOT_FILE).read_text(encoding="utf-8"))
        )
    if kind == KIND_OBS or (kind is None and (target / METRICS_FILE).exists()):
        return snapshot_from_obs_run(target, name=name)
    if kind == KIND_FLEET or kind is None:
        return snapshot_from_fleet_run(target, name=name)
    raise ValueError(f"{target}: cannot snapshot as kind {kind!r}")


# ----------------------------------------------------------------------
# The archive
# ----------------------------------------------------------------------
class RunArchive:
    """An append-only warehouse of :class:`RunSnapshot` records.

    See the module docstring for the layout and the durability/ordering
    contract.  All reads ride the salvage walk, so a half-written
    archive (crash mid-ingest) stays readable and the next ingest heals
    it.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_FILE

    def snapshot_path(self, run_id: str) -> Path:
        return self.root / RUNS_DIR / run_id / SNAPSHOT_FILE

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def add(self, snapshot: RunSnapshot) -> bool:
        """Archive a snapshot; returns True when new content landed.

        Content-hash idempotent: an already-archived ``run_id`` only
        repairs a missing index line (the crash-between-write-and-append
        case) and reports ``False``.
        """
        run_id = snapshot.run_id
        path = self.snapshot_path(run_id)
        created = not path.exists()
        if created:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(snapshot.as_dict(), sort_keys=True, indent=2)
                + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        if run_id not in {entry["run_id"] for entry in self.index()}:
            self._append_index(snapshot)
        return created

    def _append_index(self, snapshot: RunSnapshot) -> None:
        entry = {
            "schema": RUN_SCHEMA,
            "run_id": snapshot.run_id,
            "kind": snapshot.kind,
            "name": snapshot.name,
            "created": snapshot.meta.get("created"),
            "git_sha": snapshot.meta.get("git_sha"),
            "machine_score": snapshot.meta.get("machine_score"),
            "sources": list(snapshot.sources),
            "signals": snapshot.signal_count(),
        }
        self.root.mkdir(parents=True, exist_ok=True)
        with self.index_path.open("a", encoding="utf-8") as handle:
            handle.write(_canonical(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def ingest(
        self,
        target: str | Path,
        kind: str | None = None,
        name: str | None = None,
    ) -> tuple[RunSnapshot, bool]:
        """Snapshot ``target`` (see :func:`snapshot_target`) and archive
        it; returns ``(snapshot, created)``."""
        snapshot = snapshot_target(target, kind=kind, name=name)
        return snapshot, self.add(snapshot)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def index(self) -> list[dict[str, Any]]:
        """Index entries in ingest order (salvaged, first-wins dedup)."""
        if not self.index_path.exists():
            return []
        seen: set[str] = set()
        entries: list[dict[str, Any]] = []
        for data in iter_jsonl_objects(self.index_path):
            if not isinstance(data, Mapping):
                continue
            run_id = data.get("run_id")
            if not isinstance(run_id, str) or run_id in seen:
                continue
            seen.add(run_id)
            entries.append(dict(data))
        return entries

    def load(self, run_id: str) -> RunSnapshot | None:
        path = self.snapshot_path(run_id)
        if not path.exists():
            return None
        return RunSnapshot.from_dict(
            json.loads(path.read_text(encoding="utf-8"))
        )

    def snapshots(
        self, kind: str | None = None, name: str | None = None
    ) -> Iterator[RunSnapshot]:
        """Archived snapshots in ingest order, optionally filtered."""
        for entry in self.index():
            if kind is not None and entry.get("kind") != kind:
                continue
            if name is not None and entry.get("name") != name:
                continue
            snapshot = self.load(entry["run_id"])
            if snapshot is not None:
                yield snapshot

    def history(
        self,
        kind: str | None = None,
        name: str | None = None,
        last: int | None = None,
    ) -> list[RunSnapshot]:
        """The N most recent snapshots (ingest order) for a filter."""
        found = list(self.snapshots(kind=kind, name=name))
        if last is not None and last > 0:
            found = found[-last:]
        return found

    def resolve(self, ref: str) -> RunSnapshot:
        """A snapshot from a flexible reference.

        ``latest`` (most recent ingest), an existing path (snapshotted
        on the fly — raw run dirs diff without being archived first), a
        full ``run_id``, or any unique id prefix.
        """
        if ref == "latest":
            entries = self.index()
            if not entries:
                raise ValueError(f"archive {self.root} is empty")
            snapshot = self.load(entries[-1]["run_id"])
            if snapshot is None:
                raise ValueError(
                    f"archive {self.root}: latest snapshot file is missing"
                )
            return snapshot
        path = Path(ref)
        if path.exists():
            return snapshot_target(path)
        matches = [
            entry["run_id"] for entry in self.index()
            if entry["run_id"].startswith(ref)
        ]
        if len(matches) == 1:
            snapshot = self.load(matches[0])
            if snapshot is not None:
                return snapshot
            raise ValueError(
                f"run {matches[0][:12]} is indexed but its snapshot file "
                "is missing"
            )
        if matches:
            raise ValueError(
                f"run reference {ref!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        raise ValueError(
            f"run reference {ref!r} matches nothing in {self.root} "
            "(not a path, not an archived id, not 'latest')"
        )
