"""Declarative experiment sweeps, executed through the fleet substrate.

Before this layer, every experiment module ran its own bespoke serial
``for``-loop over ``run_*`` scenario calls — one core, no resume, and
fourteen copies of the same plumbing.  A :class:`SweepSpec` instead
*declares* an experiment: an ordered list of :class:`SweepPoint` rows,
each naming the scenario calls (registry name + JSON-safe kwargs + seed)
its row needs, plus a pure reducer folding the resulting task metrics
back into the row dict.  :class:`ExperimentDriver` expands the spec into
:class:`~repro.fleet.spec.FleetTask` units, executes them through
:class:`~repro.fleet.runner.FleetRunner` (serial or ``jobs=N``, resumable
when given a file-backed :class:`~repro.fleet.results.ResultStore`), and
reduces the records into the familiar
:class:`~repro.experiments.common.ExperimentResult`.

Determinism contract: every task carries an explicit seed, metrics
round-trip through the store's canonical JSON on every path (including
the in-memory store), and reduction reads records by task id — so serial,
parallel, and resumed-after-interrupt runs of the same spec produce
byte-identical rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.experiments.common import ExperimentResult
from repro.fleet.results import STATUS_OK, MemoryResultStore, ResultStore, TaskRecord
from repro.fleet.runner import FleetOutcome, FleetRunner, ProgressFn
from repro.fleet.spec import FleetTask, encode_params, validate_scenario_params


@dataclass(frozen=True)
class TaskCall:
    """One scenario invocation a sweep row depends on.

    Attributes:
        scenario: name in :data:`repro.workloads.scenarios.SCENARIOS`.
        params: scenario kwargs (seed excluded; ``CostModel`` values are
            fine — they are JSON-encoded at expansion time).
        seed: explicit scenario seed.  Experiments pin seeds (the rows
            must reproduce the paper tables exactly), so sweeps carry
            them verbatim instead of deriving them spawn-key style.
    """

    scenario: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0


@dataclass(frozen=True)
class SweepPoint:
    """One experiment row: its axis coordinates plus the calls it needs.

    Attributes:
        axis: the row's swept coordinates (passed to the reducer; purely
            informational for single-axis sweeps, load-bearing for rows
            that branch on a case label).
        calls: role name -> :class:`TaskCall`.  Roles are local to the
            point ("run", "clean_o3", "attacked_o3", ...) and become the
            task-id suffix, so resume keys stay stable under reordering
            of other points.
    """

    axis: Mapping[str, Any]
    calls: Mapping[str, TaskCall]


#: Per-row reducer: ``(axis, {role: metrics}) -> row dict``.  Receives the
#: JSON-round-tripped task metrics for every role the point declared and
#: returns the complete, ordered row (axis values included).
RowReducer = Callable[[dict[str, Any], dict[str, dict[str, Any]]], dict[str, Any]]

#: Notes builder: ``(rows) -> [note, ...]``, run after all rows reduce.
NotesFn = Callable[[list[dict[str, Any]]], list[str]]


class ExperimentTaskError(RuntimeError):
    """A sweep task failed (or vanished from the store) during reduction.

    Experiments must fail loudly — a half-reduced paper table is worse
    than no table — so unlike open-ended fleet campaigns (which record
    errors and retry on resume) the driver raises as soon as a row's
    record is missing or errored.
    """


@dataclass
class SweepSpec:
    """A complete declarative experiment: points, reducer, presentation.

    Satisfies the :class:`~repro.fleet.runner.FleetRunner` plan interface
    (``tasks()`` + ``max_events``), so a sweep executes on the same
    runner/store/resume machinery as any fleet campaign.

    Attributes:
        experiment_id: e.g. ``"E1"`` (also the task-id prefix).
        title / paper_artifact / columns: presentation metadata, copied
            onto the reduced :class:`ExperimentResult`.
        points: ordered sweep rows.
        reduce_row: per-row reducer (see :data:`RowReducer`).
        notes: optional notes builder over the reduced rows.
        max_events: per-task engine event budget; ``None`` (default)
            disables the guard — experiments are fixed, vetted workloads,
            unlike open-ended campaign specs.
    """

    experiment_id: str
    title: str
    paper_artifact: str
    columns: list[str]
    points: list[SweepPoint]
    reduce_row: RowReducer
    notes: NotesFn | None = None
    max_events: int | None = None

    def task_id(self, index: int, role: str) -> str:
        """Stable task id for one point's role (the resume key)."""
        return f"{self.experiment_id}/{index:04d}/{role}"

    def session_count(self) -> int:
        """Total number of scenario runs the sweep expands to."""
        return sum(len(point.calls) for point in self.points)

    def tasks(self) -> list[FleetTask]:
        """Expand into the deterministic, ordered, validated task list."""
        expanded: list[FleetTask] = []
        for index, point in enumerate(self.points):
            for role, call in point.calls.items():
                validate_scenario_params(
                    call.scenario,
                    call.params,
                    f"experiment {self.experiment_id}",
                )
                expanded.append(FleetTask(
                    task_id=self.task_id(index, role),
                    scenario=call.scenario,
                    params=encode_params(call.params),
                    seed=call.seed,
                ))
        ids = [task.task_id for task in expanded]
        if len(set(ids)) != len(ids):
            raise ValueError(
                f"experiment {self.experiment_id}: duplicate task ids "
                "(two points share an index/role pair?)"
            )
        return expanded


class ExperimentDriver:
    """Executes a :class:`SweepSpec` and reduces it to a result table.

    Args:
        spec: the sweep to run.
        jobs: worker processes (``1`` = in-process serial).
        store: optional durable store; pass either file-backed store
            backend (:class:`ResultStore` or
            :class:`~repro.fleet.results.ShardedResultStore`) to make the
            run resumable (finished tasks are skipped on re-run).
            Defaults to an in-memory store — same JSON round-trip, no
            file.
        progress: optional per-record callback, forwarded to the runner.
        obs_dir: observe every task (forwarded to the runner): a
            campaign rollup, plus a metrics file for each failing
            session, land under this directory — same semantics as
            ``fleet --obs``.
    """

    def __init__(
        self,
        spec: SweepSpec,
        jobs: int = 1,
        store: ResultStore | MemoryResultStore | Any | None = None,
        progress: ProgressFn | None = None,
        obs_dir: str | Path | None = None,
    ) -> None:
        self.spec = spec
        self.jobs = jobs
        self.store = store if store is not None else MemoryResultStore()
        self.progress = progress
        self.obs_dir = obs_dir
        #: Populated by :meth:`run` — the fleet outcome of the last call
        #: (task counts, resume skips, wall time, sessions/second).
        self.outcome: FleetOutcome | None = None

    def run(self) -> ExperimentResult:
        """Execute all pending tasks, then reduce the store to rows."""
        runner = FleetRunner(
            self.spec, self.store, jobs=self.jobs, progress=self.progress,
            obs_dir=self.obs_dir,
        )
        self.outcome = runner.run()
        return self.reduce()

    def reduce(self) -> ExperimentResult:
        """Fold the store's records into the experiment's row table.

        Pure given the store contents — callable on its own to re-render
        a finished (or resumed) run without executing anything.
        """
        spec = self.spec
        latest: dict[str, TaskRecord] = {
            record.task_id: record for record in self.store.records()
        }
        result = ExperimentResult(
            experiment_id=spec.experiment_id,
            title=spec.title,
            paper_artifact=spec.paper_artifact,
            columns=list(spec.columns),
        )
        for index, point in enumerate(spec.points):
            metrics: dict[str, dict[str, Any]] = {}
            for role, call in point.calls.items():
                task_id = spec.task_id(index, role)
                record = latest.get(task_id)
                if record is None:
                    raise ExperimentTaskError(
                        f"{task_id}: no record in store (interrupted run? "
                        "re-run with the same store to resume)"
                    )
                if record.status != STATUS_OK:
                    raise ExperimentTaskError(f"{task_id}: {record.error}")
                # Guard against a stale store: task ids are positional, so
                # an old record could otherwise be silently attributed to a
                # point whose parameters have since changed.
                expected = json.dumps(
                    encode_params(call.params), sort_keys=True
                )
                stored = json.dumps(record.params, sort_keys=True)
                if (record.scenario != call.scenario
                        or record.seed != call.seed
                        or stored != expected):
                    raise ExperimentTaskError(
                        f"{task_id}: stored record does not match the "
                        "current sweep (scenario/params/seed changed since "
                        "the store was written); use a fresh store "
                        "directory or delete the stale file"
                    )
                metrics[role] = record.metrics
            result.add_row(**spec.reduce_row(dict(point.axis), metrics))
        if spec.notes is not None:
            for note in spec.notes(result.rows):
                result.note(note)
        return result
