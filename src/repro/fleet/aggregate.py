"""Cross-fleet aggregation of campaign results — streaming, constant memory.

Turns a pile of :class:`~repro.fleet.results.TaskRecord` lines into the
campaign-level verdicts an operator actually reads: how many sessions
converged, the distribution of convergence times, the collateral totals
(discards, lost sequence numbers, accepted replays), and — most useful in
practice — the worst-case outliers *with their repro seeds*, so any tail
case replays as a single deterministic scenario call.

Scale story.  The pre-PR-8 aggregator materialised every record (and
every convergence time) before reducing; a 10^6-session campaign blew
memory before the first percentile printed.  The fold is now a
:class:`CampaignAggregate` — counters, a
:class:`~repro.obs.hub.QuantileSketch` (the obs hub's histogram type),
and a bounded :class:`OutlierReservoir` — whose per-record cost is O(1)
and whose ``merge`` is associative and commutative, so shards fold in any
grouping to byte-identical results.  :func:`summarize_store` exploits a
sharded store's layout to dedup resumed/retried records one shard at a
time, holding O(shard) state instead of O(campaign).

Exact vs approximate.  Convergence-time values are additionally kept
verbatim up to ``exact_cap`` observations; within the cap, percentiles
are the exact linear-interpolation values (bit-for-bit what the old
aggregator produced).  Past the cap the exact buffer is dropped and the
sketch answers: a conservative per-value upper bound within one
sub-bucket, relative error at most ``2**(1/8) - 1`` (~9.05%).  ``max``
and counters are always exact.  Either way the result is a pure function
of the record *multiset* — independent of job count, shard count, and
fold order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.fleet.results import STATUS_ERROR, STATUS_OK, TaskRecord
from repro.obs.hub import SKETCH_RELATIVE_ERROR, QuantileSketch, percentile

#: Percentile points reported for convergence time.
PERCENTILES = (50.0, 90.0, 99.0, 100.0)

#: Keep convergence times verbatim up to this many observations; beyond
#: it the aggregate degrades to sketch percentiles.  64k floats is ~0.5MB
#: — irrelevant next to the record stream — while keeping every campaign
#: that fits byte-identical to the historical exact aggregator.
DEFAULT_EXACT_CAP = 65_536


@dataclass
class Outlier:
    """A worst-case session, carrying everything needed to replay it."""

    task_id: str
    scenario: str
    seed: int
    params: dict[str, Any]
    reason: str
    value: float

    def summary(self) -> str:
        return (
            f"{self.task_id} [{self.reason}={self.value:g}] "
            f"scenario={self.scenario} seed={self.seed} params={self.params}"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "task_id": self.task_id,
            "scenario": self.scenario,
            "seed": self.seed,
            "params": dict(self.params),
            "reason": self.reason,
            "value": self.value,
        }


def _outlier_key(outlier: Outlier) -> tuple[float, str]:
    return (-outlier.value, outlier.task_id)


class OutlierReservoir:
    """Bounded worst-case selection, independent of insertion order.

    Two classes with the historical priority rule: *failures* (errors,
    bound violations, accepted replays) always outrank *slow* convergers;
    within a class, larger value wins, task id breaks ties.  Each class
    keeps at most ``4 * worst_k`` candidates between prunes, so memory is
    O(worst_k) however many records stream through, and because top-k
    under a total order is a pure function of the multiset, any insertion
    or merge order yields the same selection.
    """

    def __init__(self, worst_k: int) -> None:
        if worst_k < 0:
            raise ValueError(f"worst_k must be >= 0, got {worst_k}")
        self.worst_k = worst_k
        self._failures: list[Outlier] = []
        self._slow: list[Outlier] = []

    def _offer(self, pool: list[Outlier], outlier: Outlier) -> None:
        pool.append(outlier)
        if len(pool) > 4 * self.worst_k:
            pool.sort(key=_outlier_key)
            del pool[self.worst_k:]

    def add_failure(self, outlier: Outlier) -> None:
        self._offer(self._failures, outlier)

    def add_slow(self, outlier: Outlier) -> None:
        self._offer(self._slow, outlier)

    def merge(self, other: "OutlierReservoir") -> None:
        for outlier in other._failures:
            self.add_failure(outlier)
        for outlier in other._slow:
            self.add_slow(outlier)

    def top(self) -> list[Outlier]:
        """The final worst-k list: failures first, then slow convergers."""
        failures = sorted(self._failures, key=_outlier_key)
        slow = sorted(self._slow, key=_outlier_key)
        return (failures + slow)[: self.worst_k]


@dataclass
class FleetSummary:
    """Aggregate scores for one campaign's result records."""

    tasks: int = 0
    ok: int = 0
    errors: int = 0
    converged: int = 0
    with_violations: int = 0
    replays_accepted_total: int = 0
    fresh_discarded_total: int = 0
    lost_seqnums_total: int = 0
    resets_total: int = 0
    convergence_time: dict[str, float] = field(default_factory=dict)
    wall_time_total: float = 0.0
    outliers: list[Outlier] = field(default_factory=list)
    #: ``"exact"`` while every convergence time fit the exact buffer,
    #: ``"sketch"`` once percentiles come from the quantile sketch.
    percentile_mode: str = "exact"

    def render(self) -> str:
        """Multi-line human-readable campaign report."""
        lines = [
            f"sessions: {self.tasks} ({self.ok} ok, {self.errors} errored)",
            f"converged: {self.converged}/{self.ok}"
            f" ({self.with_violations} with bound violations)",
            f"resets injected: {self.resets_total}",
            f"replays accepted: {self.replays_accepted_total}",
            f"fresh discarded: {self.fresh_discarded_total}",
            f"seqnums lost: {self.lost_seqnums_total}",
        ]
        if self.convergence_time:
            formatted = "  ".join(
                f"{name}={value * 1e6:.1f}us"
                for name, value in self.convergence_time.items()
            )
            qualifier = "" if self.percentile_mode == "exact" else (
                f" (sketch, <={SKETCH_RELATIVE_ERROR:.1%} high)"
            )
            lines.append(f"time-to-converge: {formatted}{qualifier}")
        lines.append(f"worker wall time: {self.wall_time_total:.2f}s")
        if self.outliers:
            lines.append("worst cases (repro seeds):")
            lines.extend(f"  {outlier.summary()}" for outlier in self.outliers)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe export (the CLI's ``aggregate.json``)."""
        return {
            "tasks": self.tasks,
            "ok": self.ok,
            "errors": self.errors,
            "converged": self.converged,
            "with_violations": self.with_violations,
            "replays_accepted_total": self.replays_accepted_total,
            "fresh_discarded_total": self.fresh_discarded_total,
            "lost_seqnums_total": self.lost_seqnums_total,
            "resets_total": self.resets_total,
            "convergence_time": dict(self.convergence_time),
            "percentile_mode": self.percentile_mode,
            "wall_time_total": self.wall_time_total,
            "outliers": [outlier.as_dict() for outlier in self.outliers],
        }


class CampaignAggregate:
    """The streaming fold: O(1) per record, mergeable across shards.

    Feed it *deduplicated* records (one per task — latest wins; the
    :func:`summarize` / :func:`summarize_store` drivers handle that) via
    :meth:`observe`, or fold whole sub-aggregates in via :meth:`merge`.
    ``merge`` is associative and commutative, so a campaign can be
    reduced per shard, per worker, or in one pass and the
    :meth:`summary` is identical.
    """

    def __init__(
        self, worst_k: int = 5, exact_cap: int = DEFAULT_EXACT_CAP
    ) -> None:
        self.worst_k = worst_k
        self.exact_cap = exact_cap
        self.tasks = 0
        self.ok = 0
        self.errors = 0
        self.converged = 0
        self.with_violations = 0
        self.replays_accepted_total = 0
        self.fresh_discarded_total = 0
        self.lost_seqnums_total = 0
        self.resets_total = 0
        self.wall_time_total = 0.0
        self.sketch = QuantileSketch()
        #: exact convergence times, until the cap spills to sketch-only.
        self._exact: list[float] | None = []
        self.reservoir = OutlierReservoir(worst_k)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def _observe_time(self, value: float) -> None:
        self.sketch.observe(value)
        if self._exact is not None:
            self._exact.append(value)
            if len(self._exact) > self.exact_cap:
                self._exact = None

    def observe(self, record: TaskRecord) -> None:
        """Fold one (deduplicated) task record."""
        self.tasks += 1
        self.wall_time_total += record.wall_time
        if record.status == STATUS_ERROR:
            self.errors += 1
            self.reservoir.add_failure(Outlier(
                task_id=record.task_id,
                scenario=record.scenario,
                seed=record.seed,
                params=dict(record.params),
                reason="error",
                value=1.0,
            ))
            return
        if record.status != STATUS_OK:
            return
        self.ok += 1
        metrics = record.metrics
        replays = metrics.get("replays_accepted", 0)
        violations = metrics.get("bound_violations", [])
        self.replays_accepted_total += replays
        self.fresh_discarded_total += metrics.get("fresh_discarded", 0)
        self.lost_seqnums_total += sum(metrics.get("lost_seqnums_per_reset", []))
        self.resets_total += (
            metrics.get("sender_resets", 0) + metrics.get("receiver_resets", 0)
        )
        task_times = metrics.get("time_to_converge", [])
        for value in task_times:
            self._observe_time(value)
        if metrics.get("converged", False):
            self.converged += 1
        if violations:
            self.with_violations += 1
            self.reservoir.add_failure(Outlier(
                task_id=record.task_id,
                scenario=record.scenario,
                seed=record.seed,
                params=dict(record.params),
                reason="violations",
                value=float(len(violations)),
            ))
        elif replays:
            self.reservoir.add_failure(Outlier(
                task_id=record.task_id,
                scenario=record.scenario,
                seed=record.seed,
                params=dict(record.params),
                reason="replays",
                value=float(replays),
            ))
        elif task_times:
            self.reservoir.add_slow(Outlier(
                task_id=record.task_id,
                scenario=record.scenario,
                seed=record.seed,
                params=dict(record.params),
                reason="slow_converge",
                value=max(task_times),
            ))

    def merge(self, other: "CampaignAggregate") -> None:
        """Fold a sub-aggregate in (associative, commutative)."""
        self.tasks += other.tasks
        self.ok += other.ok
        self.errors += other.errors
        self.converged += other.converged
        self.with_violations += other.with_violations
        self.replays_accepted_total += other.replays_accepted_total
        self.fresh_discarded_total += other.fresh_discarded_total
        self.lost_seqnums_total += other.lost_seqnums_total
        self.resets_total += other.resets_total
        self.wall_time_total += other.wall_time_total
        self.sketch.merge(other.sketch)
        if self._exact is None or other._exact is None:
            self._exact = None
        else:
            self._exact.extend(other._exact)
            if len(self._exact) > self.exact_cap:
                self._exact = None
        self.reservoir.merge(other.reservoir)

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------
    @property
    def percentile_mode(self) -> str:
        return "exact" if self._exact is not None else "sketch"

    def convergence_percentiles(self) -> dict[str, float]:
        """The reported percentile points (exact or sketch, see module
        docstring); empty when no convergence times were observed."""
        if self.sketch.count == 0:
            return {}
        if self._exact is not None:
            return {
                f"p{q:g}" if q < 100.0 else "max": percentile(self._exact, q)
                for q in PERCENTILES
            }
        points = {
            f"p{q:g}": self.sketch.quantile(q / 100.0)
            for q in PERCENTILES if q < 100.0
        }
        points["max"] = self.sketch.maximum  # the max is always exact
        return points

    def summary(self) -> FleetSummary:
        return FleetSummary(
            tasks=self.tasks,
            ok=self.ok,
            errors=self.errors,
            converged=self.converged,
            with_violations=self.with_violations,
            replays_accepted_total=self.replays_accepted_total,
            fresh_discarded_total=self.fresh_discarded_total,
            lost_seqnums_total=self.lost_seqnums_total,
            resets_total=self.resets_total,
            convergence_time=self.convergence_percentiles(),
            wall_time_total=self.wall_time_total,
            outliers=self.reservoir.top(),
            percentile_mode=self.percentile_mode,
        )


def summarize(
    records: Iterable[TaskRecord],
    worst_k: int = 5,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> FleetSummary:
    """Fold task records into a :class:`FleetSummary`.

    A resumed store may hold several records for one task (an error line
    from an interrupted run, then the successful retry); each task counts
    once, its **latest** record winning — stores are append-ordered, so
    the latest record is the current truth.

    This generic-iterable path holds the deduplication map in memory;
    prefer :func:`summarize_store` for a store handle, which dedups one
    shard at a time.
    """
    latest: dict[str, TaskRecord] = {}
    for record in records:
        latest[record.task_id] = record
    aggregate = CampaignAggregate(worst_k=worst_k, exact_cap=exact_cap)
    for record in latest.values():
        aggregate.observe(record)
    return aggregate.summary()


def iter_shards(store: Any) -> list[Any]:
    """A store's independently reducible pieces (itself, if unsharded)."""
    shards = getattr(store, "shards", None)
    if shards:
        return list(shards)
    return [store]


def _fold_shard(
    shard: Any, worst_k: int, exact_cap: int
) -> CampaignAggregate:
    """Two-pass shard fold: latest-record-wins in O(shard tasks) memory.

    Pass 1 notes each task's last record position (a task's records never
    leave its shard, so within-shard order is the whole truth); pass 2
    streams the records again, folding only the winners.  Nothing heavier
    than one record and the position map is ever live.
    """
    last_position: dict[str, int] = {}
    for position, record in enumerate(shard.records()):
        last_position[record.task_id] = position
    aggregate = CampaignAggregate(worst_k=worst_k, exact_cap=exact_cap)
    for position, record in enumerate(shard.records()):
        if last_position[record.task_id] == position:
            aggregate.observe(record)
    return aggregate


def aggregate_store(
    store: Any, worst_k: int = 5, exact_cap: int = DEFAULT_EXACT_CAP
) -> CampaignAggregate:
    """Reduce a result store shard-by-shard into one campaign aggregate."""
    total = CampaignAggregate(worst_k=worst_k, exact_cap=exact_cap)
    for shard in iter_shards(store):
        total.merge(_fold_shard(shard, worst_k, exact_cap))
    return total


def summarize_store(
    store: Any, worst_k: int = 5, exact_cap: int = DEFAULT_EXACT_CAP
) -> FleetSummary:
    """:func:`summarize`, but exploiting the store's shard layout.

    On a :class:`~repro.fleet.results.ShardedResultStore` the peak state
    is O(largest shard): each shard is deduplicated and folded
    independently, then the O(1)-sized aggregates merge.  A single-file
    store reduces as one shard (the dedup map spans the campaign, but
    records still stream one at a time).
    """
    return aggregate_store(store, worst_k=worst_k, exact_cap=exact_cap).summary()
