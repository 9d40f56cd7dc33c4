"""Cross-run trajectories: N-run history tables with EWMA control bands.

Where :mod:`repro.obs.compare` answers "did *this* run get worse than
*that* one", the trend layer answers "where has this signal been
heading" over every archived run of a kind: an EWMA center line plus an
exponentially weighted variance band, with a point flagged anomalous
when it lands more than :data:`ANOMALY_Z` standard deviations outside
the band the *previous* runs established (the point under test never
vets itself).

Signal addressing uses the archive's flat names, with an ``@`` suffix
to reach inside distributions: ``recovery_latency@p99`` and
``time_to_converge@p99`` are sketch-histogram 99th percentiles,
``metric/time_to_converge@mean`` an exact sample mean.  Bare names hit
counters first, then gauges.

Everything here is a pure function of the snapshot sequence — no
timestamps, no machine fields — so a history table rendered at ingest
time and one replayed later from the archive alone are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.obs.archive import RunSnapshot
from repro.obs.hub import QuantileSketch, percentile

#: EWMA smoothing for the center line and the variance band.  0.3 tracks
#: a genuine level shift within ~3 runs without chasing a single outlier.
TREND_ALPHA = 0.3

#: A point further than this many band standard deviations from the
#: prior center line is flagged.
ANOMALY_Z = 3.0

#: Signals the history table shows by default (filtered to the ones the
#: archived snapshots actually carry).
DEFAULT_HISTORY_SIGNALS = (
    "replay_discards",
    "fresh_discarded",
    "blackholed",
    "errors",
    "converged",
    "recovery_latency@p99",
    "time_to_converge@p99",
    "metric/time_to_converge@mean",
)


def signal_value(snapshot: RunSnapshot, name: str) -> float | None:
    """Resolve a (possibly ``@``-suffixed) signal name on a snapshot."""
    base, sep, stat = name.partition("@")
    signals = snapshot.signals
    if not sep:
        if base in signals.get("counters", {}):
            return float(signals["counters"][base])
        if base in signals.get("gauges", {}):
            return float(signals["gauges"][base])
        return None
    histograms = signals.get("histograms", {})
    if base in histograms:
        return _dist_stat(QuantileSketch.from_dict(histograms[base]), stat)
    samples = signals.get("samples", {})
    if samples.get(base):
        return _sample_stat([float(v) for v in samples[base]], stat)
    return None


def _dist_stat(dist: QuantileSketch, stat: str) -> float | None:
    if stat == "mean":
        return float(dist.mean)
    if stat == "max":
        return float(dist.maximum) if dist.count else 0.0
    if stat.startswith("p"):
        try:
            q = float(stat[1:]) / 100.0
        except ValueError:
            return None
        if 0.0 <= q <= 1.0:
            return float(dist.quantile(q))
    return None


def _sample_stat(values: list[float], stat: str) -> float | None:
    if stat == "mean":
        return sum(values) / len(values)
    if stat == "max":
        return max(values)
    if stat.startswith("p"):
        try:
            q = float(stat[1:])
        except ValueError:
            return None
        if 0.0 <= q <= 100.0:
            return percentile(values, q)
    return None


@dataclass
class TrendPoint:
    """One run's value for one signal, against the running control band."""

    run_id: str
    value: float
    center: float      # EWMA center line after folding this point in
    band: float        # EWMA standard deviation after this point
    anomaly: bool      # outside the band the previous points set


def compute_trend(
    snapshots: Sequence[RunSnapshot],
    name: str,
    alpha: float = TREND_ALPHA,
    z: float = ANOMALY_Z,
) -> list[TrendPoint]:
    """EWMA control-band walk over the snapshots (ingest order).

    The anomaly test compares each point against the center/variance of
    the points *before* it (at least two), so the flag means "this run
    broke the established pattern", not "the pattern includes this run".
    A degenerate zero-variance history — the common case for a
    deterministic simulation archived repeatedly — flags any departure
    beyond float-noise tolerance.
    """
    points: list[TrendPoint] = []
    center = 0.0
    variance = 0.0
    seen = 0
    for snapshot in snapshots:
        value = signal_value(snapshot, name)
        if value is None:
            continue
        if seen == 0:
            center = value
            anomaly = False
        else:
            residual = value - center
            tolerance = 1e-12 + 1e-9 * abs(center)
            threshold = max(z * math.sqrt(variance), tolerance)
            anomaly = seen >= 2 and abs(residual) > threshold
            variance = (1.0 - alpha) * (variance + alpha * residual ** 2)
            center += alpha * residual
        seen += 1
        points.append(TrendPoint(
            run_id=snapshot.short_id, value=value, center=center,
            band=math.sqrt(variance), anomaly=anomaly,
        ))
    return points


def history_signals(
    snapshots: Sequence[RunSnapshot],
    signals: Sequence[str] | None = None,
) -> list[str]:
    """The signal columns to show: the requested (or default) names
    filtered to those at least one snapshot resolves."""
    names = signals if signals is not None else DEFAULT_HISTORY_SIGNALS
    return [
        name for name in names
        if any(signal_value(s, name) is not None for s in snapshots)
    ]


def _format_cell(value: float | None, anomaly: bool) -> str:
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e15:
        text = str(int(value))
    else:
        text = f"{value:.4g}"
    return f"{text}!" if anomaly else text


def render_history_table(
    snapshots: Sequence[RunSnapshot],
    signals: Sequence[str] | None = None,
) -> str:
    """The ``obs history`` table: one row per run, one column per
    signal, ``!`` marking control-band anomalies.

    Byte-identical however it is produced — live after an ingest or
    replayed from the archive — because it reads nothing but the
    snapshots' hashed content and ids.
    """
    if not snapshots:
        return "history: no archived runs match"
    columns = history_signals(snapshots, signals)
    trends = {name: compute_trend(snapshots, name) for name in columns}
    cells: dict[tuple[str, str], str] = {}
    anomalies = 0
    for name in columns:
        for point in trends[name]:
            cells[(point.run_id, name)] = _format_cell(
                point.value, point.anomaly
            )
            anomalies += point.anomaly
    width = {
        name: max(
            len(_short_header(name)),
            max((len(cells.get((s.short_id, name), "-"))
                 for s in snapshots), default=1),
        )
        for name in columns
    }
    header = f"{'run':<14} {'name':<20} " + " ".join(
        f"{_short_header(name):>{width[name]}}" for name in columns
    )
    lines = [header, "-" * len(header)]
    for snapshot in snapshots:
        row = " ".join(
            f"{cells.get((snapshot.short_id, name), '-'):>{width[name]}}"
            for name in columns
        )
        lines.append(
            f"{snapshot.short_id:<14} {snapshot.name[:20]:<20} {row}"
        )
    lines.append(
        f"{len(snapshots)} run(s); {anomalies} anomaly point(s) "
        f"(! = beyond {ANOMALY_Z:g} sigma of the EWMA control band)"
    )
    return "\n".join(lines)


def _short_header(name: str) -> str:
    """Column headers compress the long prefixes the archive uses."""
    return name.replace("metric/", "m/")[-18:]
