"""Run snapshots: one content-addressed signal table per run.

An observed run directory (``metrics.jsonl`` + ``manifest.json``) or a
fleet campaign directory (``aggregate.json`` + ``campaign_obs.json``)
reduces to one :class:`RunSnapshot` (schema :data:`RUN_SCHEMA`): a flat
table of *signals* (counters, gauges, serialized
:class:`~repro.obs.hub.QuantileSketch` histograms, capped exact sample
series) plus unhashed metadata (the git sha and the manifest's scenario,
seed and params).  Snapshots are what :mod:`repro.obs.compare` diffs:
``python -m repro obs snapshot`` writes one, and the CI gate diffs a
fresh observed run against the committed reference
``benchmarks/baselines/obs_reference/run.json``.

**Content addressing.**  ``run_id`` is the SHA-256 of the canonical JSON
of ``{kind, name, signals}`` — *not* the metadata, so the same
deterministic simulation snapshotted on two machines (different git
sha, different wall time) hashes to the same id.  That is what lets a
committed reference pin the code that produced it.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs.export import (
    MANIFEST_FILE,
    METRICS_FILE,
    read_manifest,
    read_metrics_jsonl,
)
from repro.obs.hub import QuantileSketch, split_label

#: Schema tag for snapshots.  ``@2``: one distribution table, every
#: payload a :class:`QuantileSketch`.
RUN_SCHEMA = "repro.obs/run@2"

#: Snapshot kinds (what produced the signals).
KIND_OBS = "obs-run"
KIND_FLEET = "fleet-run"

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
    """One run: hashed signal table + unhashed metadata.

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
                "after it was written"
            )
        return snapshot


# ----------------------------------------------------------------------
# Extractors: repo artifacts -> RunSnapshot
# ----------------------------------------------------------------------
def _base_meta() -> dict[str, Any]:
    from repro.perf import current_git_sha

    sha = current_git_sha()
    return {"git_sha": sha} if sha else {}


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


def snapshot_from_obs_run(run_dir: str | Path) -> RunSnapshot:
    """Reduce an observed-run directory (``metrics.jsonl`` +
    ``manifest.json``) to a snapshot named after the manifest's
    scenario.

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
    run_name = export.get("name") or run_dir.name
    if manifest_path.exists():
        sources.append(MANIFEST_FILE)
        manifest = read_manifest(manifest_path)
        run_name = manifest.get("scenario") or run_name
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


def snapshot_from_fleet_run(run_dir: str | Path) -> RunSnapshot:
    """Reduce a fleet campaign directory (``aggregate.json`` and, when
    the campaign observed tasks, ``campaign_obs.json``) to a snapshot
    named after the directory."""
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
        kind=KIND_FLEET, name=run_dir.name, signals=signals,
        meta=meta, sources=sources,
    )


def snapshot_target(target: str | Path) -> RunSnapshot:
    """Sniff what ``target`` is and reduce it to a snapshot.

    A :data:`RUN_SCHEMA` JSON file (a written ``run.json``) loads as-is;
    a directory with ``metrics.jsonl`` is an observed run; any other
    directory is read as a fleet campaign (``aggregate.json`` /
    ``campaign_obs.json``).
    """
    target = Path(target)
    if target.is_file():
        data = json.loads(target.read_text(encoding="utf-8"))
        if data.get("schema") == RUN_SCHEMA:
            return RunSnapshot.from_dict(data)
        raise ValueError(f"{target}: not a {RUN_SCHEMA} snapshot")
    if not target.is_dir():
        raise FileNotFoundError(target)
    if (target / METRICS_FILE).exists():
        return snapshot_from_obs_run(target)
    return snapshot_from_fleet_run(target)
