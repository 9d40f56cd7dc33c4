"""Campaign execution: expand a spec, run its tasks, persist results.

:class:`FleetRunner` is the driver loop: expand the
:class:`~repro.fleet.spec.CampaignSpec` into tasks, drop the ones the
:class:`~repro.fleet.results.ResultStore` already holds (resume), execute
the rest — in-process when ``jobs=1``, across a ``multiprocessing`` pool
otherwise — and append each record to the store the moment it completes.

Two properties the rest of the fleet stack depends on:

* **Determinism** — every task carries its own derived seed, task
  execution never reads shared mutable state, and completed records are
  appended in task order (``imap``, not ``imap_unordered``), so serial
  and parallel runs of the same spec write byte-identical stores modulo
  the ``wall_time`` field.
* **Crash tolerance** — the store is append-on-complete from the parent
  process only; kill the run at any point and re-running the same spec
  skips every finished task and recomputes nothing else.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.fleet.results import (
    STATUS_ERROR,
    STATUS_OK,
    ResultStore,
    TaskRecord,
    report_metrics,
)
from repro.fleet.spec import CampaignSpec, FleetTask, decode_params
from repro.obs.export import write_metrics_jsonl
from repro.obs.flightrec import FlightRecorder
from repro.obs.hub import MetricsHub, merge_rollups, use_hub
from repro.obs.resource import (
    ResourceProbe,
    TaskProfiler,
    publish_task_usage,
    resource_snapshot,
)
from repro.obs.stream import CampaignStream, ProgressEvent, StreamConfig
from repro.sim.engine import Engine
from repro.workloads.scenarios import ScenarioResult, get_scenario

#: Progress callback signature: (completed_in_this_run, remaining_total,
#: record).  Called once per finished task, in completion order.
ProgressFn = Callable[[int, int, TaskRecord], None]


def scenario_metrics(result: Any) -> dict[str, Any]:
    """Flatten a scenario's return value into JSON-safe task metrics.

    Harness-backed scenarios return a :class:`ScenarioResult`, scored via
    :func:`report_metrics` plus any scenario-specific ``extra`` fields;
    simulation scenarios without a protocol harness (rekey, DPD, save
    policy, ...) return a plain metrics mapping, recorded as-is.
    """
    if isinstance(result, ScenarioResult):
        metrics = report_metrics(result.report)
        metrics.update(result.extra)
        return metrics
    if isinstance(result, Mapping):
        return dict(result)
    raise TypeError(
        f"scenario returned {type(result).__name__}; expected a "
        "ScenarioResult or a metrics mapping"
    )


# ----------------------------------------------------------------------
# Worker-side streaming context
# ----------------------------------------------------------------------
class _StreamWorker:
    """Per-process streaming state: event emitter, flight ring, profiler.

    One instance lives in each pool worker (installed by
    :func:`_init_stream_worker`); the serial path installs one in the
    parent for the duration of the run.  ``emit`` is "put a JSON-safe
    event dict on the wire" — the pool queue's ``put`` in workers, a
    direct locked :meth:`CampaignStream.emit` in serial mode.
    """

    def __init__(
        self,
        name: str,
        emit: Callable[[dict[str, Any]], None],
        config: Mapping[str, Any],
    ) -> None:
        self.name = name
        self.emit = emit
        self.flight = FlightRecorder(
            name, limit=int(config.get("flight_limit", 256))
        )
        self.flight_dir = Path(config["flight_dir"])
        profile_dir = config.get("profile_dir")
        self.profiler = (
            TaskProfiler(
                profile_dir,
                percentile=float(config.get("profile_percentile", 0.95)),
            )
            if profile_dir
            else None
        )
        self.heartbeat_interval = float(config.get("heartbeat_interval", 5.0))
        self.trace_malloc = bool(config.get("trace_malloc", False))
        self._last_heartbeat = 0.0

    def event(
        self, kind: str, task_id: str | None = None, **data: Any
    ) -> None:
        self.emit(
            ProgressEvent(
                kind=kind, time=time.time(), worker=self.name,
                task_id=task_id, data=data,
            ).to_dict()
        )

    def heartbeat(self, force: bool = False) -> None:
        """Emit a heartbeat with resources (rate-limited unless forced).

        Checked at task boundaries — a worker silent for longer than the
        interval is mid-task or wedged, which is itself the signal the
        dashboard's heartbeat-age column reads.
        """
        now = time.time()
        if not force and now - self._last_heartbeat < self.heartbeat_interval:
            return
        self._last_heartbeat = now
        self.flight.note("worker_heartbeat", time=now)
        self.event("worker_heartbeat", resources=resource_snapshot())


#: The process's active streaming context (None = streaming off — the
#: byte-identical legacy path).
_STREAM_WORKER: _StreamWorker | None = None


def _worker_sigterm(signum: int, frame: Any) -> None:
    """Pool-worker SIGTERM: dump the flight ring if a task is in flight.

    ``Pool`` shutdown also SIGTERMs idle workers; the active-task guard
    keeps normal runs from littering flight files — only a worker killed
    *mid-task* (a torn task worth diagnosing) dumps.
    """
    ctx = _STREAM_WORKER
    if ctx is not None and ctx.flight.current_task is not None:
        try:
            ctx.flight.dump(ctx.flight_dir, "sigterm")
        except OSError:
            pass
    os._exit(128 + signum)


def _init_stream_worker(
    event_queue: Any, config: Mapping[str, Any]
) -> None:
    """Pool initializer: install the streaming context in this worker."""
    global _STREAM_WORKER
    identity = getattr(multiprocessing.current_process(), "_identity", ())
    name = f"w{identity[0]}" if identity else "w0"
    _STREAM_WORKER = _StreamWorker(name, event_queue.put, config)
    signal.signal(signal.SIGTERM, _worker_sigterm)
    if _STREAM_WORKER.trace_malloc and not tracemalloc.is_tracing():
        tracemalloc.start()
    _STREAM_WORKER.heartbeat(force=True)  # announce the worker exists


def _execute_streamed(
    ctx: _StreamWorker,
    task: FleetTask,
    max_events: int | None,
    obs_dir: str | Path | None,
) -> TaskRecord:
    """Worker-side execution under a streaming context.

    Emits ``task_started`` and boundary heartbeats; the *parent* emits
    ``task_finished`` after the store append (the persist-before-fold
    ordering the ledger's exactness guarantee rests on).  Dumps the
    flight ring on any exception that escapes (``execute_task`` never
    raises, so an escape means the harness itself broke).
    """
    now = time.time()
    ctx.flight.task_started(task.task_id, time=now)
    ctx.event("task_started", task_id=task.task_id)
    profile = (
        ctx.profiler.profile(task.task_id)
        if ctx.profiler is not None
        else contextlib.nullcontext()
    )
    try:
        with profile:
            record = execute_task(task, max_events, obs_dir=obs_dir)
    except BaseException:
        try:
            ctx.flight.dump(ctx.flight_dir, "unhandled_exception")
        except OSError:
            pass
        raise
    ctx.flight.task_finished(
        task.task_id, time=time.time(),
        status=record.status, wall_time=record.wall_time,
    )
    ctx.heartbeat()
    return record


def execute_task(
    task: FleetTask,
    max_events: int | None = None,
    obs_dir: str | Path | None = None,
) -> TaskRecord:
    """Run one task to completion and score it; never raises.

    Task params are JSON-encoded (see :func:`repro.fleet.spec.decode_params`
    for the tagged-value scheme: ``CostModel`` overrides round-trip through
    plain dicts) and decoded here, in the worker, right before the call.

    The engine's class-wide default hard event limit is set for the
    duration of the call so the guard reaches the engine built deep
    inside the scenario helper; any exception — including the
    :class:`~repro.sim.engine.EngineEventLimitError` tripwire — becomes a
    ``status="error"`` record (retried on the next resume) instead of
    taking the whole campaign down.

    With ``obs_dir`` set, the task runs under a fresh ambient
    :class:`~repro.obs.MetricsHub` (same pattern as the event limit:
    installed around the call so engines built inside the scenario
    helper pick it up), its full metrics land in
    ``<obs_dir>/<task_id>.metrics.jsonl``, and a label-rolled summary
    rides the record as ``metrics["obs"]`` so campaign aggregates reach
    the :class:`~repro.fleet.results.ResultStore` without re-reading the
    per-task files.
    """
    started = time.perf_counter()
    previous_limit = Engine.default_hard_event_limit
    Engine.default_hard_event_limit = max_events
    hub = MetricsHub(task.task_id) if obs_dir is not None else None
    ambient = use_hub(hub) if hub is not None else contextlib.nullcontext()
    # Worker resource probing rides the streaming context only: with
    # streaming off, observed runs keep their pre-stream metrics files
    # byte-identical (the stream-off parity the acceptance pins).
    usage_before = None
    if hub is not None and _STREAM_WORKER is not None:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()  # per-task allocation peak
        usage_before = resource_snapshot()
    try:
        scenario = get_scenario(task.scenario)
        with ambient:
            result = scenario(seed=task.seed, **decode_params(task.params))
        metrics = scenario_metrics(result)
        if hub is not None:
            if usage_before is not None:
                ResourceProbe(hub).sample(time.time())
                publish_task_usage(hub, usage_before, resource_snapshot())
            write_metrics_jsonl(
                hub, Path(obs_dir) / f"{task.task_id}.metrics.jsonl"
            )
            metrics["obs"] = hub.rollup()
        return TaskRecord(
            task_id=task.task_id,
            scenario=task.scenario,
            params=dict(task.params),
            seed=task.seed,
            status=STATUS_OK,
            metrics=metrics,
            wall_time=time.perf_counter() - started,
        )
    except Exception as exc:  # noqa: BLE001 - one bad task must not kill the fleet
        return TaskRecord(
            task_id=task.task_id,
            scenario=task.scenario,
            params=dict(task.params),
            seed=task.seed,
            status=STATUS_ERROR,
            error=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - started,
        )
    finally:
        Engine.default_hard_event_limit = previous_limit


def _pool_execute(
    payload: tuple[dict[str, Any], int | None, str | None]
) -> dict[str, Any]:
    """Pool worker entry point (module-level so it pickles by reference).

    Routes through the streaming context when the pool was built with
    :func:`_init_stream_worker`; otherwise this is the unchanged
    stream-off path.
    """
    task_data, max_events, obs_dir = payload
    task = FleetTask.from_dict(task_data)
    if _STREAM_WORKER is not None:
        return _execute_streamed(
            _STREAM_WORKER, task, max_events, obs_dir
        ).to_dict()
    return execute_task(task, max_events, obs_dir=obs_dir).to_dict()


@dataclass
class FleetOutcome:
    """What one :meth:`FleetRunner.run` call did.

    Attributes:
        total: tasks the spec expands to.
        skipped: tasks already in the store (resume hits).
        executed: records produced by this call, in task order.
        wall_time: elapsed wall time of this call, in seconds.
    """

    total: int
    skipped: int
    executed: list[TaskRecord] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def sessions_per_second(self) -> float:
        """Throughput of this call (0 when nothing ran)."""
        if not self.executed or self.wall_time <= 0:
            return 0.0
        return len(self.executed) / self.wall_time


class FleetRunner:
    """Executes a campaign spec against a result store.

    Args:
        spec: the campaign to run — a :class:`CampaignSpec`, or any plan
            exposing ``tasks() -> list[FleetTask]`` and ``max_events``
            (the experiment sweeps in :mod:`repro.experiments.sweep` do).
        store: durable record sink — any backend sharing the
            :class:`ResultStore` contract (single-file JSONL, sharded,
            SQLite, or the in-memory variant); pre-existing ``ok``
            records are treated as finished work and skipped.
        jobs: worker processes; ``1`` runs in-process (no pool overhead).
        max_events: per-task engine event budget; defaults to
            ``spec.max_events`` (``None`` disables the guard).
        progress: optional per-record callback (see :data:`ProgressFn`).
        obs_dir: observe every task (default None — no observability,
            exactly the pre-obs fast path).  Tasks run under per-task
            hubs, full metrics land in
            ``<obs_dir>/<task_id>.metrics.jsonl``, rollup summaries
            ride the records, and :meth:`run` aggregates worst-case
            health across the campaign.  Determinism is preserved: the
            hub observes, never schedules, so stores stay byte-identical
            modulo ``wall_time`` whether observed or not.
        stream: live-telemetry config (default None — streaming off,
            exactly the pre-stream path: no ledger, no queue, no worker
            context).  When set, the run appends schema-versioned
            progress events to the config's ``progress.jsonl`` ledger
            (persist-before-fold), workers carry flight recorders and
            resource probes, and :attr:`view` exposes the live
            :class:`~repro.obs.stream.CampaignView` for watchers.
    """

    def __init__(
        self,
        spec: CampaignSpec | Any,
        store: ResultStore | Any,
        jobs: int = 1,
        max_events: int | None = None,
        progress: ProgressFn | None = None,
        obs_dir: str | Path | None = None,
        stream: StreamConfig | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.spec = spec
        self.store = store
        self.jobs = jobs
        self.max_events = max_events if max_events is not None else spec.max_events
        self.progress = progress
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self.stream = stream
        #: Live view of the current streamed run (None when stream off).
        self.view = None
        self._stream_state: CampaignStream | None = None
        self._stream_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _results(self, pending: list[FleetTask]) -> Iterator[TaskRecord]:
        obs_dir = str(self.obs_dir) if self.obs_dir is not None else None
        if self.jobs == 1:
            if self._stream_state is not None:
                yield from self._serial_streamed(pending)
                return
            for task in pending:
                yield execute_task(task, self.max_events, obs_dir=self.obs_dir)
            return
        payloads = [
            (task.to_dict(), self.max_events, obs_dir) for task in pending
        ]
        if self._stream_state is not None:
            yield from self._pool_streamed(payloads)
            return
        # chunksize=1 keeps completion streaming; ordered imap keeps the
        # store's line order identical to the serial run.
        with multiprocessing.Pool(processes=self.jobs) as pool:
            for record_data in pool.imap(_pool_execute, payloads, chunksize=1):
                yield TaskRecord.from_dict(record_data)

    def _serial_streamed(
        self, pending: list[FleetTask]
    ) -> Iterator[TaskRecord]:
        """jobs=1 under streaming: the parent is its own worker."""
        global _STREAM_WORKER
        stream, lock = self._stream_state, self._stream_lock

        def emit(item: dict[str, Any]) -> None:
            with lock:
                stream.emit(ProgressEvent.from_dict(item))

        ctx = _StreamWorker("w0", emit, self.stream.worker_payload())
        if ctx.trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
        ctx.heartbeat(force=True)
        previous = _STREAM_WORKER
        _STREAM_WORKER = ctx
        try:
            for task in pending:
                yield _execute_streamed(
                    ctx, task, self.max_events, self.obs_dir
                )
        finally:
            _STREAM_WORKER = previous

    def _pool_streamed(
        self, payloads: list[tuple[dict[str, Any], int | None, str | None]]
    ) -> Iterator[TaskRecord]:
        """Pool execution with worker events drained off a queue.

        Workers stream events (task_started, heartbeats) over a
        multiprocessing queue passed through the pool initializer; a
        parent drain thread folds them into the ledger under the stream
        lock.  The pool is closed and joined (not terminated) on the
        happy path so worker feeder threads flush their last events.
        """
        stream, lock = self._stream_state, self._stream_lock
        event_queue: Any = multiprocessing.Queue()
        stop = threading.Event()

        def drain() -> None:
            while True:
                try:
                    item = event_queue.get(timeout=0.1)
                except queue_module.Empty:
                    if stop.is_set():
                        return
                    continue
                with lock:
                    stream.emit(ProgressEvent.from_dict(item))

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
        pool = multiprocessing.Pool(
            processes=self.jobs,
            initializer=_init_stream_worker,
            initargs=(event_queue, self.stream.worker_payload()),
        )
        try:
            for record_data in pool.imap(_pool_execute, payloads, chunksize=1):
                yield TaskRecord.from_dict(record_data)
            pool.close()
            pool.join()
        except BaseException:
            pool.terminate()
            pool.join()
            raise
        finally:
            stop.set()
            drainer.join(timeout=5.0)

    def run(self) -> FleetOutcome:
        """Execute every pending task, appending records as they finish."""
        started = time.perf_counter()
        # A previous run may have been killed mid-append; heal the store
        # (terminate any torn tail line) before reading completed work.
        # Sharded stores rescan only their dirty shards here.
        self.store.heal()
        tasks = self.spec.tasks()
        done = self.store.completed_ids()
        total = len(tasks)
        pending = [task for task in tasks if task.task_id not in done]
        if self.obs_dir is not None:
            self.obs_dir.mkdir(parents=True, exist_ok=True)
        outcome = FleetOutcome(total=total, skipped=total - len(pending))
        stream: CampaignStream | None = None
        if self.stream is not None:
            # Open replays any existing ledger and reconciles it against
            # the healed store (record-in-flight gap of a previous kill).
            stream = CampaignStream.open(
                self.stream.ledger_path, completed_ids=done, now=time.time()
            )
            self._stream_state = stream
            self.view = stream.view
            stream.emit(ProgressEvent(
                kind="campaign_started", time=time.time(),
                data={
                    "campaign": getattr(self.spec, "name", "campaign"),
                    "total": total,
                    "skipped": outcome.skipped,
                    "jobs": self.jobs,
                },
            ))
        pending_rollups: list[dict[str, Any]] = []
        try:
            for record in self._results(pending):
                # Store first, ledger second: a ledger task_finished
                # always implies a durable store record, never the
                # other way around.
                self.store.append(record)
                if stream is not None:
                    self._emit_finished(stream, record, pending_rollups)
                outcome.executed.append(record)
                if self.progress is not None:
                    self.progress(len(outcome.executed), len(pending), record)
            if stream is not None:
                with self._stream_lock:
                    if pending_rollups:
                        stream.emit_snapshot(time.time(), pending_rollups)
                        pending_rollups.clear()
                    stream.emit(ProgressEvent(
                        kind="campaign_finished", time=time.time(),
                        data={"executed": len(outcome.executed)},
                    ))
        finally:
            if stream is not None:
                stream.close()
                self._stream_state = None
        if self.obs_dir is not None:
            self._write_campaign_rollup()
        outcome.wall_time = time.perf_counter() - started
        return outcome

    def _emit_finished(
        self,
        stream: CampaignStream,
        record: TaskRecord,
        pending_rollups: list[dict[str, Any]],
    ) -> None:
        """Ledger a completed record (parent-side, post-append)."""
        kind = "task_finished" if record.status == STATUS_OK else "task_errored"
        data: dict[str, Any] = {"wall_time": record.wall_time}
        if record.error is not None:
            data["error"] = record.error
        rollup = record.metrics.get("obs") if record.status == STATUS_OK else None
        if isinstance(rollup, Mapping):
            pending_rollups.append(dict(rollup))
        with self._stream_lock:
            stream.emit(ProgressEvent(
                kind=kind, time=time.time(),
                task_id=record.task_id, data=data,
            ))
            every = self.stream.snapshot_every if self.stream else 0
            if every and stream.view.wall_time_count % every == 0:
                stream.emit_snapshot(time.time(), pending_rollups)
                pending_rollups.clear()

    def _write_campaign_rollup(self) -> None:
        """Aggregate every stored task's obs summary into one file.

        Reads the rollups back from the *store* (not just this call's
        records), so a resumed campaign aggregates everything — earlier
        sessions included — and ``campaign_obs.json`` always reflects
        the store's complete state.
        """
        rollups = [
            record.metrics["obs"]
            for record in self.store.records()
            if record.status == STATUS_OK and "obs" in record.metrics
        ]
        merged = merge_rollups(rollups)
        path = self.obs_dir / "campaign_obs.json"
        path.write_text(
            json.dumps(merged, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | Any | str | Path,
    jobs: int = 1,
    progress: ProgressFn | None = None,
    obs_dir: str | Path | None = None,
    stream: StreamConfig | None = None,
) -> FleetOutcome:
    """Convenience wrapper: build the runner and execute the campaign.

    ``store`` may be any result-store backend (single-file, sharded,
    SQLite, in-memory) or a bare path, which opens a single-file JSONL
    store at that location.
    """
    if isinstance(store, (str, Path)):
        store = ResultStore(store)
    return FleetRunner(
        spec, store, jobs=jobs, progress=progress, obs_dir=obs_dir,
        stream=stream,
    ).run()
