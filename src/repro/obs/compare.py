"""Statistical run-to-run diffing: per-metric GREEN/YELLOW/RED verdicts.

Compares two :class:`~repro.obs.archive.RunSnapshot` signal tables and
votes each metric's delta into a verdict through the same
:func:`~repro.obs.health.vote` quorum the per-SA health table uses — a
metric goes RED only when *both* its relative and its absolute
worsening cross the RED thresholds, so a large percentage swing on a
tiny base (0 -> 1 discard) or a tiny absolute drift on a huge base
cannot alone fail a build.

Three comparison shapes, most exact evidence first:

* **Scalars** (counters/gauges): signed delta against a per-metric
  :class:`MetricPolicy` (direction, thresholds, gated-or-info).
* **Sample means** (exact series): the delta of means with a
  deterministic bootstrap confidence interval; a RED whose 95% CI
  spans zero demotes to YELLOW (*not significant*), and fewer than
  :data:`MIN_BOOTSTRAP_SAMPLES` observations per side caps the verdict
  at YELLOW (a single observation is never proof of regression).
* **Distribution quantiles** (quantile-sketch histograms): the diff
  compares *uncertainty intervals*, not point estimates.  Each side
  answers ``quantile_bounds(q)`` — a sketch's ``[hi/(1+eps), hi]`` with
  ``eps`` the documented <=9.05% bound, an exact sample's ``[v, v]`` —
  and the gate worsens only by ``current_lo - baseline_hi``.
  Overlapping intervals are GREEN by construction: **sketch noise can
  never raise a false RED.**

The rendered verdict table is a pure function of the two snapshots
(no timestamps, no machine fields), so a diff of two written snapshots
is byte-identical to the one produced from the live runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.archive import RunSnapshot
from repro.obs.health import HealthState, signal_level, vote
from repro.obs.hub import QuantileSketch, percentile

#: Bootstrap parameters — fixed seed and round count so the CI is a
#: deterministic function of the two sample lists (replayable diffs).
BOOTSTRAP_ROUNDS = 200
BOOTSTRAP_SEED = 0xC0FFEE
BOOTSTRAP_CONFIDENCE = 0.95

#: Below this many observations per side a mean diff cannot go RED.
MIN_BOOTSTRAP_SAMPLES = 3

#: Quantile points compared for every distribution signal.
DIFF_QUANTILES = (0.5, 0.99)


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric family diffs.

    ``direction``: +1 higher-is-worse, -1 lower-is-worse, 0 info-only.
    ``rel``: (yellow, red) fractional worsening thresholds.
    ``absolute``: (yellow, red) absolute worsening thresholds, in the
    metric's own unit — also the floor of the relative denominator, so
    a near-zero baseline cannot inflate the relative term.
    ``gated``: whether a RED verdict fails the regression gate.
    """

    pattern: str
    direction: int = 1
    rel: tuple[float, float] = (0.10, 0.50)
    absolute: tuple[float, float] = (1.0, 10.0)
    gated: bool = True

    def matches(self, name: str) -> bool:
        return fnmatchcase(name, self.pattern)


#: Thresholds in seconds for the sim-time latency metrics (t_save is
#: 100us in the paper's constants; half a t_save of drift is notable,
#: two are a regression).
_TIME_ABS = (5e-5, 2e-4)

#: First match wins.  Protocol counters and latency metrics are gated;
#: environment/throughput signals are informational (the perf gate owns
#: events/s; wall time and resources never left the meta section, but
#: older rollups may still carry stray names — keep them inert).
DEFAULT_POLICIES: tuple[MetricPolicy, ...] = (
    MetricPolicy("*wall_time*", direction=0, gated=False),
    MetricPolicy("worker/*", direction=0, gated=False),
    MetricPolicy("engine/*", direction=0, gated=False),
    MetricPolicy("metric/k_*", direction=0, gated=False),
    MetricPolicy("*replays_accepted*", absolute=(1.0, 2.0)),
    MetricPolicy("*with_violations", absolute=(1.0, 2.0)),
    MetricPolicy("*errors", absolute=(1.0, 2.0)),
    MetricPolicy("*replay_discards", absolute=(2.0, 50.0)),
    MetricPolicy("*fresh_discarded*", absolute=(2.0, 50.0)),
    MetricPolicy("*blackholed", absolute=(2.0, 50.0)),
    MetricPolicy("*lost_seqnums*", absolute=(2.0, 50.0)),
    MetricPolicy("*loss_ewma", absolute=(0.02, 0.10)),
    MetricPolicy("*save_queue_depth", absolute=(1.0, 4.0)),
    MetricPolicy("*recovery*", absolute=_TIME_ABS),
    MetricPolicy("*save_wait*", absolute=_TIME_ABS),
    MetricPolicy("*time_to_converge*", absolute=_TIME_ABS),
    MetricPolicy("*convergence*", absolute=_TIME_ABS),
    MetricPolicy("*spread*", absolute=_TIME_ABS),
    MetricPolicy("*fetch_wait*", absolute=_TIME_ABS),
    MetricPolicy("*converged", direction=-1, absolute=(1.0, 2.0)),
    MetricPolicy("ok", direction=-1, absolute=(1.0, 2.0)),
    MetricPolicy("tasks", direction=0, gated=False),
    MetricPolicy("*resets", direction=0, gated=False),
    MetricPolicy("*transitions", direction=0, gated=False),
    MetricPolicy("*rebinds", direction=0, gated=False),
)

#: Anything unmatched is informational: a new signal appearing in a
#: future PR should surface in the table, not fail the gate untuned.
_FALLBACK_POLICY = MetricPolicy("*", direction=0, gated=False)


def policy_for(
    name: str, policies: Sequence[MetricPolicy] = DEFAULT_POLICIES
) -> MetricPolicy:
    for policy in policies:
        if policy.matches(name):
            return policy
    return _FALLBACK_POLICY


@dataclass
class DiffRow:
    """One metric's verdict in a run diff."""

    name: str
    kind: str  # counter | gauge | mean | p50 | p99 | presence
    baseline: float | None
    current: float | None
    state: HealthState
    gated: bool
    note: str = ""

    @property
    def change(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "baseline": self.baseline,
            "current": self.current,
            "change": self.change,
            "state": self.state.label,
            "gated": self.gated,
            "note": self.note,
        }


@dataclass
class RunDiff:
    """Every compared metric, plus the gate verdict derived from it."""

    baseline_id: str
    current_id: str
    baseline_name: str
    current_name: str
    rows: list[DiffRow] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffRow]:
        """Gated RED rows — the ones that fail a build."""
        return [
            row for row in self.rows
            if row.gated and row.state is HealthState.RED
        ]

    @property
    def verdict(self) -> HealthState:
        worst = HealthState.GREEN
        for row in self.rows:
            if row.gated and row.state > worst:
                worst = row.state
        return worst

    def as_dict(self) -> dict[str, Any]:
        return {
            "baseline": {"run_id": self.baseline_id,
                         "name": self.baseline_name},
            "current": {"run_id": self.current_id, "name": self.current_name},
            "verdict": self.verdict.label,
            "regressions": len(self.regressions),
            "rows": [row.as_dict() for row in self.rows],
        }


# ----------------------------------------------------------------------
# Verdict arithmetic
# ----------------------------------------------------------------------
def _vote_worsening(
    worsening: float, baseline_scale: float, policy: MetricPolicy
) -> HealthState:
    """The quorum: relative AND absolute worsening must both go RED."""
    relative = worsening / max(abs(baseline_scale), policy.absolute[0])
    levels = [
        signal_level(relative, *policy.rel),
        signal_level(worsening, *policy.absolute),
    ]
    return vote(levels, red_votes=2)


def classify_scalar(
    baseline: float, current: float, policy: MetricPolicy
) -> tuple[HealthState, str]:
    """Verdict for a plain counter/gauge delta."""
    if policy.direction == 0:
        return HealthState.GREEN, ""
    worsening = (current - baseline) * policy.direction
    if worsening <= 0:
        return HealthState.GREEN, ""
    state = _vote_worsening(worsening, baseline, policy)
    if state is HealthState.GREEN:
        return state, ""
    return state, f"worse by {worsening:g}"


def bootstrap_delta_ci(
    baseline: Sequence[float],
    current: Sequence[float],
    rounds: int = BOOTSTRAP_ROUNDS,
    seed: int = BOOTSTRAP_SEED,
    confidence: float = BOOTSTRAP_CONFIDENCE,
) -> tuple[float, float]:
    """Percentile-bootstrap CI of ``mean(current) - mean(baseline)``.

    Deterministic (fixed seed) so a diff replays byte-identically.
    """
    rng = random.Random(seed)
    n_base, n_cur = len(baseline), len(current)
    deltas = []
    for _ in range(rounds):
        base_mean = sum(
            baseline[rng.randrange(n_base)] for _ in range(n_base)
        ) / n_base
        cur_mean = sum(
            current[rng.randrange(n_cur)] for _ in range(n_cur)
        ) / n_cur
        deltas.append(cur_mean - base_mean)
    deltas.sort()
    tail = (1.0 - confidence) / 2.0
    low = deltas[int(tail * (rounds - 1))]
    high = deltas[int((1.0 - tail) * (rounds - 1))]
    return low, high


def classify_samples(
    baseline: Sequence[float],
    current: Sequence[float],
    policy: MetricPolicy,
) -> tuple[HealthState, str]:
    """Verdict for two exact sample series (bootstrap the mean delta)."""
    base_mean = sum(baseline) / len(baseline)
    cur_mean = sum(current) / len(current)
    if policy.direction == 0:
        return HealthState.GREEN, ""
    worsening = (cur_mean - base_mean) * policy.direction
    if worsening <= 0:
        return HealthState.GREEN, ""
    state = _vote_worsening(worsening, base_mean, policy)
    if state is HealthState.GREEN:
        return state, ""
    n = min(len(baseline), len(current))
    if n < MIN_BOOTSTRAP_SAMPLES:
        if state is HealthState.RED:
            state = HealthState.YELLOW
        return state, f"worse by {worsening:g} (n={n}, no CI)"
    low, high = bootstrap_delta_ci(baseline, current)
    significant = low > 0.0 if policy.direction > 0 else high < 0.0
    if state is HealthState.RED and not significant:
        return HealthState.YELLOW, (
            f"worse by {worsening:g}, not significant "
            f"(95% CI [{low:g}, {high:g}] spans 0)"
        )
    return state, (
        f"worse by {worsening:g} (95% CI [{low:g}, {high:g}])"
    )


def classify_bounds(
    baseline: tuple[float, float],
    current: tuple[float, float],
    policy: MetricPolicy,
) -> tuple[HealthState, str]:
    """Verdict for two quantile *uncertainty intervals*.

    The worsening that gates is the gap between the intervals in the
    bad direction; overlap is GREEN ("within sketch error"), which is
    what makes the documented conservative bounds a no-false-RED rule.
    """
    base_lo, base_hi = baseline
    cur_lo, cur_hi = current
    if policy.direction == 0:
        return HealthState.GREEN, ""
    if policy.direction > 0:
        worsening = cur_lo - base_hi
        naive = cur_hi - base_hi
        scale = base_hi
    else:
        worsening = base_lo - cur_hi
        naive = base_lo - cur_lo
        scale = base_lo
    if worsening <= 0:
        if naive > 0:
            return HealthState.GREEN, "within sketch error"
        return HealthState.GREEN, ""
    state = _vote_worsening(worsening, scale, policy)
    if state is HealthState.GREEN:
        return state, ""
    return state, f"beyond sketch error by {worsening:g}"


# ----------------------------------------------------------------------
# Distribution access
# ----------------------------------------------------------------------
def distribution_bounds(
    snapshot: RunSnapshot, name: str, q: float
) -> tuple[float, float] | None:
    """``(lo, hi)`` bounds on the true ``q``-quantile of signal ``name``.

    Prefers the sketch histogram, then exact samples (zero-width
    interval); ``None`` when the snapshot has no distribution evidence
    under that name.  Mixed comparisons (exact on one side, sketch on
    the other) fall out for free: each side answers with its own honest
    interval.
    """
    histograms = snapshot.signals.get("histograms", {})
    if name in histograms:
        return QuantileSketch.from_dict(histograms[name]).quantile_bounds(q)
    samples = snapshot.signals.get("samples", {})
    if samples.get(name):
        value = percentile(samples[name], q * 100.0)
        return (value, value)
    return None


def _quantile_kind(q: float) -> str:
    return f"p{q * 100:g}"


# ----------------------------------------------------------------------
# The diff
# ----------------------------------------------------------------------
def _presence_row(
    name: str, kind: str, baseline: float | None, current: float | None,
    side: str,
) -> DiffRow:
    return DiffRow(
        name=name, kind=kind, baseline=baseline, current=current,
        state=HealthState.GREEN, gated=False,
        note=f"only in {side}",
    )


def diff_runs(
    baseline: RunSnapshot,
    current: RunSnapshot,
    policies: Sequence[MetricPolicy] = DEFAULT_POLICIES,
    quantiles: Iterable[float] = DIFF_QUANTILES,
) -> RunDiff:
    """Compare two snapshots signal-by-signal into a :class:`RunDiff`.

    Row order is deterministic (scalars, then means, then quantiles;
    names sorted within each group), so the rendered table is a pure
    function of the snapshot pair.
    """
    diff = RunDiff(
        baseline_id=baseline.short_id, current_id=current.short_id,
        baseline_name=baseline.name, current_name=current.name,
    )
    quantiles = tuple(quantiles)

    for table, kind in (("counters", "counter"), ("gauges", "gauge")):
        base_table: Mapping[str, Any] = baseline.signals.get(table, {})
        cur_table: Mapping[str, Any] = current.signals.get(table, {})
        for name in sorted(set(base_table) | set(cur_table)):
            policy = policy_for(name, policies)
            if name not in base_table:
                diff.rows.append(_presence_row(
                    name, kind, None, float(cur_table[name]), "current"))
                continue
            if name not in cur_table:
                diff.rows.append(_presence_row(
                    name, kind, float(base_table[name]), None, "baseline"))
                continue
            base_value = float(base_table[name])
            cur_value = float(cur_table[name])
            state, note = classify_scalar(base_value, cur_value, policy)
            diff.rows.append(DiffRow(
                name=name, kind=kind, baseline=base_value,
                current=cur_value, state=state, gated=policy.gated,
                note=note,
            ))

    base_samples = baseline.signals.get("samples", {})
    cur_samples = current.signals.get("samples", {})
    for name in sorted(set(base_samples) | set(cur_samples)):
        policy = policy_for(name, policies)
        base_values = [float(v) for v in base_samples.get(name) or ()]
        cur_values = [float(v) for v in cur_samples.get(name) or ()]
        if base_values and cur_values:
            state, note = classify_samples(base_values, cur_values, policy)
            diff.rows.append(DiffRow(
                name=name, kind="mean",
                baseline=sum(base_values) / len(base_values),
                current=sum(cur_values) / len(cur_values),
                state=state, gated=policy.gated, note=note,
            ))
        elif distribution_bounds(
            baseline, name, 0.5
        ) is None or distribution_bounds(current, name, 0.5) is None:
            # No distribution fallback either: a signal one side simply
            # does not have.  The quantile loop below handles the mixed
            # exact-vs-sketch case.
            side = "current" if cur_values else "baseline"
            mean = (
                sum(cur_values) / len(cur_values) if cur_values
                else sum(base_values) / len(base_values) if base_values
                else None
            )
            diff.rows.append(_presence_row(
                name, "mean",
                mean if side == "baseline" else None,
                mean if side == "current" else None,
                side,
            ))

    dist_names = (
        set(baseline.signals.get("histograms", {}))
        | set(current.signals.get("histograms", {}))
    )
    for name in sorted(dist_names):
        policy = policy_for(name, policies)
        probe = distribution_bounds(baseline, name, 0.5), \
            distribution_bounds(current, name, 0.5)
        if probe[0] is None or probe[1] is None:
            side = "baseline" if probe[0] is not None else "current"
            present = probe[0] if probe[0] is not None else probe[1]
            value = present[1] if present is not None else None
            diff.rows.append(_presence_row(
                name, "p50",
                value if side == "baseline" else None,
                value if side == "current" else None,
                side,
            ))
            continue
        for q in quantiles:
            base_bounds = distribution_bounds(baseline, name, q)
            cur_bounds = distribution_bounds(current, name, q)
            assert base_bounds is not None and cur_bounds is not None
            state, note = classify_bounds(base_bounds, cur_bounds, policy)
            diff.rows.append(DiffRow(
                name=name, kind=_quantile_kind(q),
                baseline=base_bounds[1], current=cur_bounds[1],
                state=state, gated=policy.gated, note=note,
            ))

    return diff


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_value(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_diff_table(diff: RunDiff, verbose: bool = False) -> str:
    """The verdict table (stable output — see module docstring).

    Non-GREEN and annotated rows print individually; clean GREEN rows
    collapse into the summary counts unless ``verbose``.
    """
    lines = [
        f"run diff: {diff.baseline_name} [{diff.baseline_id}] -> "
        f"{diff.current_name} [{diff.current_id}]",
    ]
    if diff.baseline_id == diff.current_id:
        lines.append("(identical content hashes — self-diff)")
    header = (
        f"  {'state':<7} {'metric':<36} {'kind':<8} {'baseline':>12} "
        f"{'current':>12} {'note'}"
    )
    shown = [
        row for row in diff.rows
        if verbose or row.state is not HealthState.GREEN or row.note
    ]
    if shown:
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in sorted(
            shown, key=lambda r: (-int(r.state), not r.gated, r.name, r.kind)
        ):
            gate = "" if row.gated else " (info)"
            lines.append(
                f"  {row.state.label:<7} {row.name:<36} {row.kind:<8} "
                f"{_format_value(row.baseline):>12} "
                f"{_format_value(row.current):>12} {row.note}{gate}"
            )
    gated = [row for row in diff.rows if row.gated]
    info = len(diff.rows) - len(gated)
    counts = {state: 0 for state in HealthState}
    for row in gated:
        counts[row.state] += 1
    lines.append(
        f"signals: {len(diff.rows)} compared — "
        f"{counts[HealthState.RED]} RED, {counts[HealthState.YELLOW]} "
        f"YELLOW, {counts[HealthState.GREEN]} GREEN gated; {info} info-only"
    )
    lines.append(
        f"verdict: {diff.verdict.label} "
        f"({len(diff.regressions)} regression(s))"
    )
    return "\n".join(lines)
