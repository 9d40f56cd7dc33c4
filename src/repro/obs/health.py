"""Multi-signal health classification (the controller's decision input).

The wanctl production pattern (SNIPPETS Snippet 1): a link's health is a
small state — GREEN / YELLOW / RED — derived from *several* independent
signals with voting, never from a single noisy one.  ``repro.control``
will run this classification per SA inside its state machine; the ``obs``
CLI runs it over a finished run's exported metrics to render the health
summary table.

Signals (all produced by :class:`~repro.obs.probe.HealthProbe`):

====================  =========================================
``loss_ewma``         smoothed link loss fraction
``save_queue_depth``  peak in-flight SAVEs
``recovery_p99``      p99 reset-to-resume latency (seconds)
``replay_discards``   window rejections over the run
====================  =========================================

Voting rule (:func:`classify`): any signal at its YELLOW threshold makes
the state at least YELLOW; RED requires ``red_votes`` signals (default
2) at their RED thresholds — one saturated signal alone cannot declare
an SA dead, which is the anti-flap property wanctl ships with.  A
single RED vote still reports YELLOW.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping

from repro.obs.hub import split_label


class HealthState(enum.IntEnum):
    """Ordered health states (higher is worse)."""

    GREEN = 0
    YELLOW = 1
    RED = 2

    @property
    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class HealthThresholds:
    """(yellow, red) boundaries per signal; values >= boundary trip it.

    Defaults are sized for the paper's constants (t_save = 100 us,
    t_send = 4 us): a healthy SA sees zero queueing beyond one in-flight
    SAVE and recovers within a couple of t_save.
    """

    loss: tuple[float, float] = (0.02, 0.20)
    save_queue_depth: tuple[float, float] = (2.0, 6.0)
    recovery_p99: tuple[float, float] = (5e-4, 5e-3)
    replay_discards: tuple[float, float] = (1.0, 100.0)

    def for_signal(self, name: str) -> tuple[float, float] | None:
        return {
            "loss_ewma": self.loss,
            "save_queue_depth": self.save_queue_depth,
            "recovery_p99": self.recovery_p99,
            "replay_discards": self.replay_discards,
        }.get(name)


DEFAULT_THRESHOLDS = HealthThresholds()


def signal_level(value: float, yellow: float, red: float) -> HealthState:
    """Classify one signal value against its (yellow, red) boundaries."""
    if value >= red:
        return HealthState.RED
    if value >= yellow:
        return HealthState.YELLOW
    return HealthState.GREEN


def vote(levels: list[HealthState], red_votes: int = 2) -> HealthState:
    """Fold per-signal levels into one state (the anti-flap rule).

    Any YELLOW-or-worse level makes the state at least YELLOW; RED
    requires ``red_votes`` RED levels.  Shared by :func:`classify` and
    the live dashboard's worker-health column, so both vote identically.
    """
    if levels.count(HealthState.RED) >= red_votes:
        return HealthState.RED
    if any(level >= HealthState.YELLOW for level in levels):
        return HealthState.YELLOW
    return HealthState.GREEN


def classify(
    signals: Mapping[str, float],
    thresholds: HealthThresholds = DEFAULT_THRESHOLDS,
    red_votes: int = 2,
) -> HealthState:
    """Vote the per-signal levels into one state (see module docstring).

    Signals without a configured threshold are ignored, so callers can
    pass a full signal row unfiltered.
    """
    levels = []
    for name, value in signals.items():
        bounds = thresholds.for_signal(name)
        if bounds is not None:
            levels.append(signal_level(value, *bounds))
    return vote(levels, red_votes=red_votes)


# ----------------------------------------------------------------------
# Health rows from an exported metrics dict
# ----------------------------------------------------------------------
def _labels_in(export: Mapping[str, Any]) -> list[str]:
    """The labels a metrics export actually carries signals for."""
    labels = list(export.get("labels", ()))
    if not labels:
        # Single-pair run: the probe published unlabeled.
        return [""]
    return labels


def health_rows(
    export: Mapping[str, Any],
    thresholds: HealthThresholds = DEFAULT_THRESHOLDS,
) -> list[dict[str, Any]]:
    """One signal row per label from a hub export
    (:meth:`~repro.obs.hub.MetricsHub.as_dict` shape, or the same dict
    read back from a metrics JSONL file).

    Each row carries the four classified signals, supporting context
    (reset count, path transitions), and the voted ``state``.
    """
    counters = export.get("counters", {})
    gauges = export.get("gauges", {})
    ewmas = export.get("ewmas", {})
    histograms = export.get("histograms", {})
    series = export.get("series", {})

    def prefixed(label: str, base: str) -> str:
        return f"{label}/{base}" if label else base

    rows: list[dict[str, Any]] = []
    for label in _labels_in(export):
        ewma = ewmas.get(prefixed(label, "loss_ewma"), {})
        recovery = histograms.get(prefixed(label, "recovery_latency"), {})
        depth_samples = series.get(prefixed(label, "save_queue_depth"), [])
        peak_depth = max(
            (value for _, value in depth_samples),
            default=gauges.get(prefixed(label, "save_queue_depth"), 0.0),
        )
        signals = {
            "loss_ewma": ewma.get("value", 0.0),
            "save_queue_depth": peak_depth,
            "recovery_p99": recovery.get("p99", 0.0),
            "replay_discards": counters.get(prefixed(label, "replay_discards"), 0),
        }
        rows.append({
            "label": label or "-",
            **signals,
            "resets": counters.get(prefixed(label, "resets"), 0),
            "recoveries": recovery.get("count", 0),
            "path_transitions": gauges.get(prefixed(label, "path_transitions"), 0.0),
            "state": classify(signals, thresholds).label,
        })
    return rows


def render_health_table(rows: list[dict[str, Any]]) -> str:
    """The ``python -m repro obs`` health table, one line per label."""
    header = (
        f"{'sa':<8} {'state':<7} {'loss_ewma':>9} {'queue_pk':>8} "
        f"{'rec_p99_us':>10} {'discards':>8} {'resets':>6} {'path_tr':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['label']:<8} {row['state']:<7} "
            f"{row['loss_ewma']:>9.4f} {row['save_queue_depth']:>8.0f} "
            f"{row['recovery_p99'] * 1e6:>10.1f} {row['replay_discards']:>8} "
            f"{row['resets']:>6} {row['path_transitions']:>7.0f}"
        )
    states = [row["state"] for row in rows]
    summary = ", ".join(
        f"{states.count(state.label)} {state.label}"
        for state in HealthState
        if states.count(state.label)
    ) or "no SAs"
    lines.append(f"overall: {summary}")
    return "\n".join(lines)
