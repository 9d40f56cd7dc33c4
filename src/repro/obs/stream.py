"""Streaming campaign telemetry: progress events, ledger, live view.

PR 6 made runs inspectable *after the fact*; this module is the live
signal plane: while a campaign executes, the fleet emits
schema-versioned **progress events** (:data:`PROGRESS_SCHEMA`) — the
parent announcing the campaign and folding finished tasks, workers
announcing task starts and heartbeats — and every event is appended to
a durable ``progress.jsonl`` **ledger** before it is folded into the
in-memory :class:`CampaignView` (persist-before-fold, the event-ledger
discipline of the crash-recovery design the ROADMAP's ``repro serve``
daemon will reuse).  Kill the run at any instant and the ledger replays
to the exact last acknowledged state; resume reconciles the ledger
against the healed result store, so the replayed view and the store
never disagree about which tasks completed.

The ordering contract the exactness guarantee rests on: the runner
appends a task's record to the **result store first**, then appends the
``task_finished`` event to the ledger, then folds, then calls the
progress callback.  A ledger ``task_finished`` therefore implies a
durable store record; the converse can lag by at most the record in
flight at the kill, and :meth:`CampaignStream.open`'s reconciliation
scan (store completions missing from the replayed ledger become
``recovered`` events) closes that gap on the next start.

Three consumers fold the same events: the runner's live view (behind
``fleet --watch``), ``python -m repro top`` tailing the file, and any
post-mortem replay of a finished — or killed — campaign.
"""

from __future__ import annotations

import heapq
import json
import logging
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.hub import merge_rollups
from repro.util.jsonl import iter_jsonl_objects, salvage_objects

__all__ = [
    "EVENT_KINDS",
    "PROGRESS_SCHEMA",
    "CampaignStream",
    "CampaignView",
    "LedgerTail",
    "ProgressEvent",
    "ProgressLedger",
    "StreamConfig",
    "WorkerStatus",
    "read_ledger",
]

logger = logging.getLogger(__name__)

#: Progress-event schema tag (bump on breaking shape changes).
PROGRESS_SCHEMA = "repro.obs/progress@1"

#: Every event kind a ledger line may carry.
EVENT_KINDS = (
    "campaign_started",
    "task_started",
    "task_finished",
    "task_errored",
    "worker_heartbeat",
    "snapshot",
    "campaign_finished",
)

#: Worst-outlier list size the view maintains (slowest tasks so far).
OUTLIER_KEEP = 5

#: Sliding window (finished tasks) the throughput estimate derives from.
THROUGHPUT_WINDOW = 64


@dataclass(frozen=True)
class ProgressEvent:
    """One schema-versioned line of the progress ledger.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        time: wall-clock unix timestamp of the emission.
        worker: emitting worker name (``""`` for the parent process).
        task_id: the task the event concerns (task-scoped kinds only).
        data: kind-specific payload (JSON-safe).
    """

    kind: str
    time: float
    worker: str = ""
    task_id: str | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        line: dict[str, Any] = {"kind": self.kind, "time": self.time}
        if self.kind == "campaign_started":
            line["schema"] = PROGRESS_SCHEMA
        if self.worker:
            line["worker"] = self.worker
        if self.task_id is not None:
            line["task_id"] = self.task_id
        if self.data:
            line["data"] = self.data
        return line

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProgressEvent":
        return cls(
            kind=data["kind"],
            time=float(data.get("time", 0.0)),
            worker=data.get("worker", ""),
            task_id=data.get("task_id"),
            data=dict(data.get("data", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


@dataclass(frozen=True)
class StreamConfig:
    """Everything the runner needs to stream a campaign.

    Attributes:
        ledger_path: the ``progress.jsonl`` location (beside the result
            store — see :func:`repro.fleet.results.progress_ledger_path`).
        heartbeat_interval: minimum wall seconds between a worker's
            heartbeat events (checked at task boundaries; a worker that
            stays silent longer than this is mid-task or wedged).
        snapshot_every: finished tasks between ``snapshot`` events (the
            periodic hub-rollup checkpoints; 0 disables them).
        flight_dir: where workers dump flight-recorder rings (``None``
            = the ledger's directory).
        flight_limit: flight-recorder ring capacity per worker.
        profile_dir: enable the slow-task cProfile hook and write pstats
            dumps here (``None`` = profiling off).
        profile_percentile: profile threshold — a task's wall time at or
            above this percentile of the worker's history gets its dump
            written.
        trace_malloc: also trace per-task allocations (tracemalloc) and
            publish the peak as a hub instrument.
    """

    ledger_path: Path
    heartbeat_interval: float = 5.0
    snapshot_every: int = 25
    flight_dir: Path | None = None
    flight_limit: int = 256
    profile_dir: Path | None = None
    profile_percentile: float = 0.95
    trace_malloc: bool = False

    def resolved_flight_dir(self) -> Path:
        return (Path(self.flight_dir) if self.flight_dir is not None
                else Path(self.ledger_path).parent)

    def worker_payload(self) -> dict[str, Any]:
        """The JSON-safe subset a pool worker needs (pickled once, at
        pool construction)."""
        return {
            "heartbeat_interval": self.heartbeat_interval,
            "flight_dir": str(self.resolved_flight_dir()),
            "flight_limit": self.flight_limit,
            "profile_dir": (str(self.profile_dir)
                            if self.profile_dir is not None else None),
            "profile_percentile": self.profile_percentile,
            "trace_malloc": self.trace_malloc,
        }


# ----------------------------------------------------------------------
# Ledger file
# ----------------------------------------------------------------------
class ProgressLedger:
    """Append-only JSONL progress ledger (one :class:`ProgressEvent` per
    line, ``campaign_started`` lines carrying the schema tag).

    Crash discipline mirrors the result store: appends flush per event,
    a dangling partial line from a previous kill is terminated before
    the first new append, and the replay path salvages torn lines
    instead of aborting at them.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._heal()
        self._handle = self.path.open("a", encoding="utf-8")

    def _heal(self) -> None:
        try:
            with self.path.open("rb") as handle:
                handle.seek(-1, 2)
                dangling = handle.read(1) != b"\n"
        except (FileNotFoundError, OSError):
            return
        if dangling:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write("\n")
            logger.warning("%s: healed a dangling partial line", self.path)

    def append(self, event: ProgressEvent) -> None:
        """Durably append one event (flushed before returning)."""
        self._handle.write(event.to_json() + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def read_ledger(
    path: str | Path, errors: list[str] | None = None
) -> Iterator[ProgressEvent]:
    """Replay a ledger file's events, salvaging torn lines.

    The same salvage-and-skip walk the result store heals with
    (:func:`repro.util.jsonl.iter_jsonl_objects`): a ``kill -9`` tears
    at most the final line, and that line loses only its torn fragment.
    Objects that are not progress events (no ``kind``) are skipped.
    """
    for data in iter_jsonl_objects(path, errors=errors):
        if not isinstance(data, Mapping) or "kind" not in data:
            if errors is not None:
                errors.append(f"{path}: skipping non-event object")
            continue
        yield ProgressEvent.from_dict(data)


class LedgerTail:
    """Incremental ledger reader for live followers (``repro top``).

    Keeps a byte offset and yields only events whose line is complete —
    a partially written tail line stays buffered until its newline
    arrives, so a live ``fleet --watch`` ledger and a finished one fold
    to the identical view.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._offset = 0
        self._partial = ""

    def poll(self) -> list[ProgressEvent]:
        """Events appended since the previous poll (empty if none)."""
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
                self._offset = handle.tell()
        except FileNotFoundError:
            return []
        text = self._partial + chunk
        lines = text.split("\n")
        self._partial = lines.pop()  # "" when the chunk ended on a newline
        events: list[ProgressEvent] = []
        for line in lines:
            if not line.strip():
                continue
            values, _torn = salvage_objects(line)
            for value in values:
                if isinstance(value, Mapping) and "kind" in value:
                    events.append(ProgressEvent.from_dict(value))
        return events


# ----------------------------------------------------------------------
# Live campaign state
# ----------------------------------------------------------------------
@dataclass
class WorkerStatus:
    """What the view knows about one worker process."""

    name: str
    last_seen: float = 0.0
    current_task: str | None = None
    task_started_at: float = 0.0
    tasks_done: int = 0
    errors: int = 0
    cpu_user: float = 0.0
    cpu_system: float = 0.0
    rss_bytes: int = 0

    @property
    def cpu_time(self) -> float:
        return self.cpu_user + self.cpu_system

    def note_resources(self, resources: Mapping[str, Any]) -> None:
        self.cpu_user = float(resources.get("cpu_user", self.cpu_user))
        self.cpu_system = float(resources.get("cpu_system", self.cpu_system))
        self.rss_bytes = int(resources.get("rss_bytes", self.rss_bytes))


class CampaignView:
    """The fold of a progress-event stream: live campaign state.

    Pure function of the event sequence — replaying a ledger (in any
    state of completion) reconstructs exactly the view the emitting run
    held after its last acknowledged event.  ``completed`` tracks tasks
    with an ``ok`` record in the result store, and only those: the
    SIGKILL acceptance test pins ``view.completed ==
    store.completed_ids()``.
    """

    def __init__(self) -> None:
        self.campaign = ""
        self.schema = PROGRESS_SCHEMA
        self.total = 0
        self.skipped = 0
        self.jobs = 1
        self.runs = 0          # campaign_started folds (1 + resumes)
        self.finished = False  # campaign_finished seen
        self.completed: set[str] = set()
        self.recovered: set[str] = set()
        self.errored: dict[str, str] = {}
        self.running: dict[str, str] = {}   # task_id -> worker
        # Finished tasks whose worker's task_started has not arrived yet
        # (task_id -> errored): a pool worker's events cross a queue
        # while its result returns through the pool, so the parent can
        # fold a finish before the drain thread records its start.
        self._finished_first: dict[str, bool] = {}
        self.workers: dict[str, WorkerStatus] = {}
        self.started_time = 0.0
        self.last_time = 0.0
        self.events_folded = 0
        self.rollup: dict[str, Any] = {}
        self.wall_time_sum = 0.0
        self.wall_time_count = 0
        # Worst-so-far outliers: min-heap of (wall_time, task_id) so the
        # smallest of the kept outliers is evictable in O(log k).
        self._worst: list[tuple[float, str]] = []
        self._recent: deque[float] = deque(maxlen=THROUGHPUT_WINDOW)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def fold(self, event: ProgressEvent) -> None:
        """Apply one event (events arrive in ledger order)."""
        self.events_folded += 1
        self.last_time = max(self.last_time, event.time)
        worker = self._worker(event) if event.worker else None
        kind = event.kind
        if kind == "campaign_started":
            self.runs += 1
            if self.runs == 1:
                self.started_time = event.time
            self.campaign = event.data.get("campaign", self.campaign)
            self.total = int(event.data.get("total", self.total))
            self.skipped = int(event.data.get("skipped", self.skipped))
            self.jobs = int(event.data.get("jobs", self.jobs))
            self.finished = False
            # A new run's workers can never claim the last run's finishes.
            self._finished_first.clear()
        elif kind == "task_started":
            task_id = event.task_id
            if task_id in self._finished_first:
                errored = self._finished_first.pop(task_id)
                if worker is not None:
                    worker.tasks_done += 1
                    if errored:
                        worker.errors += 1
            elif task_id is not None:
                self.running[task_id] = event.worker
                if worker is not None:
                    worker.current_task = task_id
                    worker.task_started_at = event.time
        elif kind in ("task_finished", "task_errored"):
            self._fold_finished(event, worker)
        elif kind == "worker_heartbeat":
            pass  # the _worker() bookkeeping below is the whole effect
        elif kind == "snapshot":
            rollup = event.data.get("rollup")
            if rollup:
                self.rollup = dict(rollup)
        elif kind == "campaign_finished":
            self.finished = True
            self.running.clear()
            for status in self.workers.values():
                status.current_task = None
        if worker is not None:
            worker.last_seen = event.time
            resources = event.data.get("resources")
            if resources:
                worker.note_resources(resources)

    def _fold_finished(
        self, event: ProgressEvent, worker: WorkerStatus | None
    ) -> None:
        task_id = event.task_id
        if task_id is None:
            return
        run_by = self.running.pop(task_id, None)
        owner = worker
        if owner is None and run_by:
            owner = self.workers.get(run_by)
        if owner is not None:
            if owner.current_task == task_id:
                owner.current_task = None
            owner.tasks_done += 1
        else:
            self._finished_first[task_id] = event.kind == "task_errored"
        if event.kind == "task_errored":
            self.errored[task_id] = event.data.get("error", "")
            if owner is not None:
                owner.errors += 1
        else:
            self.completed.add(task_id)
            self.errored.pop(task_id, None)
            if event.data.get("recovered"):
                self.recovered.add(task_id)
                return  # reconciliation, not a fresh completion
        wall = float(event.data.get("wall_time", 0.0))
        self.wall_time_sum += wall
        self.wall_time_count += 1
        self._recent.append(event.time)
        entry = (wall, task_id)
        if len(self._worst) < OUTLIER_KEEP:
            heapq.heappush(self._worst, entry)
        elif entry > self._worst[0]:
            heapq.heapreplace(self._worst, entry)

    def _worker(self, event: ProgressEvent) -> WorkerStatus:
        status = self.workers.get(event.worker)
        if status is None:
            status = self.workers[event.worker] = WorkerStatus(event.worker)
        return status

    @classmethod
    def replay(
        cls, path: str | Path, errors: list[str] | None = None
    ) -> "CampaignView":
        """Fold a ledger file (live or finished) into a fresh view."""
        view = cls()
        for event in read_ledger(path, errors=errors):
            view.fold(event)
        return view

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def done(self) -> int:
        """Tasks with a durable ``ok`` record (resume hits included)."""
        return len(self.completed)

    @property
    def errors(self) -> int:
        """Tasks whose latest outcome is an error record."""
        return len(self.errored)

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)

    def throughput(self) -> float:
        """Finished tasks per wall second over the recent window."""
        if len(self._recent) < 2:
            return 0.0
        span = self._recent[-1] - self._recent[0]
        if span <= 0.0:
            return 0.0
        return (len(self._recent) - 1) / span

    def eta_seconds(self) -> float | None:
        """Projected seconds to completion (None when unknowable)."""
        rate = self.throughput()
        if rate <= 0.0 or self.remaining == 0:
            return None
        return self.remaining / rate

    def mean_wall_time(self) -> float:
        if self.wall_time_count == 0:
            return 0.0
        return self.wall_time_sum / self.wall_time_count

    def worst_outliers(self) -> list[tuple[float, str]]:
        """The slowest finished tasks so far, worst first."""
        return sorted(self._worst, reverse=True)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe summary (the ``snapshot`` event payload shape)."""
        return {
            "campaign": self.campaign,
            "total": self.total,
            "done": self.done,
            "errors": self.errors,
            "skipped": self.skipped,
            "running": len(self.running),
            "workers": len(self.workers),
            "throughput": self.throughput(),
            "mean_wall_time": self.mean_wall_time(),
            "finished": self.finished,
        }


# ----------------------------------------------------------------------
# Persist-before-fold coupling
# ----------------------------------------------------------------------
class CampaignStream:
    """A ledger and its live view, coupled in the only safe order.

    :meth:`emit` appends to the durable ledger *first* and folds into
    the view second — a state the view (and therefore anything rendered
    from it) has acknowledged is always replayable from disk.
    """

    def __init__(self, ledger: ProgressLedger, view: CampaignView) -> None:
        self.ledger = ledger
        self.view = view

    @classmethod
    def open(
        cls,
        path: str | Path,
        completed_ids: set[str] | None = None,
        now: float = 0.0,
    ) -> "CampaignStream":
        """Open (or create) a campaign's stream, replaying any existing
        ledger and reconciling it against the result store.

        ``completed_ids`` is the healed store's truth.  Completions the
        store holds but the replayed ledger lacks (the record-in-flight
        gap of a previous kill) become ``task_finished`` events marked
        ``recovered`` — persisted immediately, so after ``open`` the
        ledger and the store agree exactly.  This is the recovery scan
        the ROADMAP's ``serve`` daemon will run on restart.
        """
        view = CampaignView.replay(path)
        stream = cls(ProgressLedger(path), view)
        if completed_ids is not None:
            for task_id in sorted(completed_ids - view.completed):
                stream.emit(ProgressEvent(
                    kind="task_finished", time=now, task_id=task_id,
                    data={"recovered": True},
                ))
        return stream

    def emit(self, event: ProgressEvent) -> None:
        """Persist, then fold (never the other way around)."""
        self.ledger.append(event)
        self.view.fold(event)

    def emit_snapshot(
        self, now: float, rollups: list[Mapping[str, Any]] | None = None
    ) -> None:
        """Append a periodic checkpoint: view summary + merged rollup."""
        data: dict[str, Any] = {"view": self.as_snapshot()}
        if rollups:
            merged = merge_rollups(
                ([self.view.rollup] if self.view.rollup else []) + rollups
            )
            data["rollup"] = merged
        self.emit(ProgressEvent(kind="snapshot", time=now, data=data))

    def as_snapshot(self) -> dict[str, Any]:
        return self.view.as_dict()

    def close(self) -> None:
        self.ledger.close()
