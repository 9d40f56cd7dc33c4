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
import logging
import multiprocessing
import os
import queue as queue_module
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.fleet.results import (
    STATUS_ERROR,
    STATUS_OK,
    ResultStore,
    TaskRecord,
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
from repro.workloads.scenarios import get_scenario

logger = logging.getLogger(__name__)

#: How long the pooled drain thread waits on an empty event queue
#: before it checks whether the run was torn down.
_DRAIN_POLL_S = 0.1

#: Progress callback signature: (completed_in_this_run, remaining_total,
#: record).  Called once per finished task, in completion order.
ProgressFn = Callable[[int, int, TaskRecord], None]


# ----------------------------------------------------------------------
# Worker-side streaming context
# ----------------------------------------------------------------------
#: Minimum wall seconds between a worker's heartbeat events, checked at
#: task boundaries: a worker silent for longer is mid-task or wedged,
#: which is itself the signal the dashboard's heartbeat-age column reads.
HEARTBEAT_INTERVAL_S = 5.0


class _StreamWorker:
    """Per-process streaming state: event emitter, flight ring, profiler.

    One instance lives in each pool worker (installed by
    :func:`_init_stream_worker`); the serial path installs one in the
    parent for the duration of the run.  ``emit`` is "put a JSON-safe
    event dict on the wire" — the pool queue's ``put`` in workers, the
    runner's locked :meth:`CampaignStream.emit` in serial mode.  Flight
    dumps land beside the ledger.
    """

    def __init__(
        self,
        name: str,
        emit: Callable[[dict[str, Any]], None],
        config: StreamConfig,
    ) -> None:
        self.name = name
        self.emit = emit
        self.flight = FlightRecorder(name)
        self.flight_dir = Path(config.ledger_path).parent
        self.profiler = (
            TaskProfiler(config.profile_dir)
            if config.profile_dir is not None
            else None
        )
        self.trace_malloc = config.trace_malloc
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
        """Emit a heartbeat with resources (rate-limited unless forced)."""
        now = time.time()
        if not force and now - self._last_heartbeat < HEARTBEAT_INTERVAL_S:
            return
        self._last_heartbeat = now
        self.flight.note("worker_heartbeat", time=now)
        self.event("worker_heartbeat", resources=resource_snapshot())

    def start(self) -> None:
        """Begin streaming from this process: allocation tracing when
        configured, and a heartbeat announcing the worker exists."""
        if self.trace_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
        self.heartbeat(force=True)


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


def _init_stream_worker(event_queue: Any, config: StreamConfig) -> None:
    """Pool initializer: install the streaming context in this worker."""
    global _STREAM_WORKER
    identity = getattr(multiprocessing.current_process(), "_identity", ())
    name = f"w{identity[0]}" if identity else "w0"
    _STREAM_WORKER = _StreamWorker(name, event_queue.put, config)
    signal.signal(signal.SIGTERM, _worker_sigterm)
    _STREAM_WORKER.start()


def _run_task(
    task: FleetTask,
    max_events: int | None,
    obs_dir: str | Path | None,
) -> TaskRecord:
    """Run one task in this process: the one entry the serial loop and
    the pool workers share.

    Without a streaming context this is :func:`execute_task`.  Under one,
    the task also emits ``task_started`` and boundary heartbeats, runs
    under the slow-task profiler when configured, and dumps the flight
    ring on any exception that escapes (``execute_task`` never raises,
    so an escape means the harness itself broke).  The *parent* emits
    ``task_finished`` after the store append (the persist-before-fold
    ordering the ledger's exactness guarantee rests on).
    """
    ctx = _STREAM_WORKER
    if ctx is None:
        return execute_task(task, max_events, obs_dir=obs_dir)
    ctx.flight.task_started(task.task_id, time=time.time())
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
    helper pick it up), and a label-rolled summary rides an ``ok``
    record as ``metrics["obs"]``, which is what campaign aggregates
    fold.  The full hub lands in ``<obs_dir>/<task_id>.metrics.jsonl``
    only for a :attr:`~repro.fleet.results.TaskRecord.failing` record;
    an erroring task writes its hub as it stood when the scenario
    raised.  A failed export is logged and the record still returns.
    """
    started = time.perf_counter()
    previous_limit = Engine.default_hard_event_limit
    Engine.default_hard_event_limit = max_events
    hub = MetricsHub(task.task_id) if obs_dir is not None else None
    ambient = use_hub(hub) if hub is not None else contextlib.nullcontext()
    # Worker resource probing rides the streaming context only: with
    # streaming off, observed runs keep their pre-stream metrics
    # byte-identical (the stream-off parity the acceptance pins).
    usage_before = None
    if hub is not None and _STREAM_WORKER is not None:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()  # per-task allocation peak
        usage_before = resource_snapshot()
    try:
        scenario = get_scenario(task.scenario)
        with ambient:
            metrics = scenario(seed=task.seed, **decode_params(task.params))
        if hub is not None:
            if usage_before is not None:
                ResourceProbe(hub).sample(time.time())
                publish_task_usage(hub, usage_before, resource_snapshot())
            metrics["obs"] = hub.rollup()
        record = TaskRecord(
            task_id=task.task_id,
            scenario=task.scenario,
            params=dict(task.params),
            seed=task.seed,
            status=STATUS_OK,
            metrics=metrics,
            wall_time=time.perf_counter() - started,
        )
    except Exception as exc:  # noqa: BLE001 - one bad task must not kill the fleet
        record = TaskRecord(
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
    if hub is not None and record.failing:
        path = Path(obs_dir) / f"{task.task_id}.metrics.jsonl"
        try:
            write_metrics_jsonl(hub, path)
        except Exception:  # noqa: BLE001 - a lost file must not lose the record
            logger.warning("%s: metrics export failed", path, exc_info=True)
    return record


def _pool_execute(
    payload: tuple[dict[str, Any], int | None, str | None]
) -> dict[str, Any]:
    """Pool worker entry point (module-level so it pickles by reference)."""
    task_data, max_events, obs_dir = payload
    return _run_task(
        FleetTask.from_dict(task_data), max_events, obs_dir
    ).to_dict()


@contextlib.contextmanager
def _drained(emit: Callable[[dict[str, Any]], None]) -> Iterator[Any]:
    """A queue for pool workers' events, and a thread handing each to
    ``emit`` for as long as the block runs.

    The thread returns on a ``None`` sentinel, which the caller queues
    once no worker can put anything behind it.  After a ``terminate()``
    no sentinel is sent (a killed worker may hold the queue's write
    lock): the thread then returns on its first empty poll once the
    block has exited.
    """
    event_queue: Any = multiprocessing.Queue()
    stop = threading.Event()

    def drain() -> None:
        while True:
            try:
                item = event_queue.get(timeout=_DRAIN_POLL_S)
            except queue_module.Empty:
                if stop.is_set():
                    return
                continue
            if item is None:
                return
            emit(item)

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    try:
        yield event_queue
    finally:
        stop.set()
        drainer.join(timeout=5.0)
        # The sentinel's feeder thread exits once it has flushed.
        event_queue.close()
        event_queue.join_thread()


def _interned(value: Any) -> Any:
    """``value`` rebuilt with every string in it interned.

    A record unpickled from a worker owns fresh copies of its metric
    names, scenario and status, and a gateway session's per-SA reports
    and obs rollup repeat dozens of names.  The runner keeps every
    record it executes (:attr:`FleetOutcome.executed`), so it rebuilds
    each one on shared strings; a kept record then costs about 40%
    less memory.
    """
    kind = type(value)
    if kind is str:
        return sys.intern(value)
    if kind is dict:
        return {_interned(key): _interned(item) for key, item in value.items()}
    if kind is list:
        return [_interned(item) for item in value]
    return value


def _fold_obs(
    merged: dict[str, Any] | None, record: TaskRecord
) -> dict[str, Any] | None:
    """Fold an ``ok`` record's obs rollup into ``merged`` (None: unobserved).

    ``merge_rollups`` carries its ``tasks`` count and re-reads its own
    sketches exactly, so folding one record at a time gives the same
    bytes as one merge over the whole list in the same order.
    """
    if merged is None or record.status != STATUS_OK or "obs" not in record.metrics:
        return merged
    return merge_rollups((merged, record.metrics["obs"]))


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
            or the in-memory variant); pre-existing ``ok``
            records are treated as finished work and skipped.
        jobs: worker processes; ``1`` runs in-process (no pool overhead).
        max_events: per-task engine event budget; defaults to
            ``spec.max_events`` (``None`` disables the guard).
        progress: optional per-record callback (see :data:`ProgressFn`).
        obs_dir: observe every task (default None — no observability,
            exactly the pre-obs fast path).  Tasks run under per-task
            hubs, rollup summaries ride the records, and :meth:`run`
            folds them into ``<obs_dir>/campaign_obs.json``, worst-case
            health across the campaign.  Only a failing session (see
            :attr:`TaskRecord.failing`) also writes its full hub to
            ``<obs_dir>/<task_id>.metrics.jsonl``.  Determinism is
            preserved: the hub observes, never schedules, so stores stay
            byte-identical modulo ``wall_time`` whether observed or not.
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
    def _emit(self, item: dict[str, Any]) -> None:
        """Ledger one worker event dict, under the stream lock (the
        serial context's emitter, and the pool drain thread's)."""
        with self._stream_lock:
            self._stream_state.emit(ProgressEvent.from_dict(item))

    def _results(self, pending: list[FleetTask]) -> Iterator[TaskRecord]:
        if self.jobs > 1:
            yield from self._pooled(pending)
            return
        # jobs=1: the parent runs every task, and under streaming it is
        # its own worker.
        global _STREAM_WORKER
        previous = _STREAM_WORKER
        _STREAM_WORKER = None
        if self._stream_state is not None:
            _STREAM_WORKER = _StreamWorker("w0", self._emit, self.stream)
            _STREAM_WORKER.start()
        try:
            for task in pending:
                yield _run_task(task, self.max_events, self.obs_dir)
        finally:
            _STREAM_WORKER = previous

    def _pooled(self, pending: list[FleetTask]) -> Iterator[TaskRecord]:
        """Run the tasks on a worker pool, yielding records in task order.

        chunksize=1 keeps completion streaming; ordered imap keeps the
        store's line order identical to the serial run.  Under streaming
        the pool initializer gives each worker a context whose events
        cross a queue to :func:`_drained`'s thread.  The pool is closed
        and joined (not terminated) on the happy path so worker feeder
        threads flush their last events; only then does the parent
        queue the ``None`` sentinel, so no event can land behind it.
        """
        obs_dir = str(self.obs_dir) if self.obs_dir is not None else None
        payloads = [
            (task.to_dict(), self.max_events, obs_dir) for task in pending
        ]
        streamed = self._stream_state is not None
        events = _drained(self._emit) if streamed else contextlib.nullcontext()
        with events as event_queue:
            pool = multiprocessing.Pool(
                processes=self.jobs,
                initializer=_init_stream_worker if streamed else None,
                initargs=(event_queue, self.stream) if streamed else (),
            )
            try:
                for record_data in pool.imap(_pool_execute, payloads, chunksize=1):
                    yield TaskRecord.from_dict(_interned(record_data))
                pool.close()
                pool.join()
                if streamed:
                    event_queue.put(None)
            except BaseException:
                pool.terminate()
                pool.join()
                raise

    def run(self) -> FleetOutcome:
        """Execute every pending task, appending records as they finish.

        The store is read once: a pass at the start builds the resume
        set and, when observed, folds every stored ``ok`` record's
        rollup; each record this call appends is folded as it lands.
        The fold visits records in the store's read order followed by
        append order, so ``campaign_obs.json`` matches a fold over a
        re-read single-file store byte for byte.
        """
        started = time.perf_counter()
        # A previous run may have been killed mid-append; heal the store
        # (terminate any torn tail line) before reading completed work.
        # Sharded stores rescan only their dirty shards here.
        self.store.heal()
        tasks = self.spec.tasks()
        done: set[str] = set()
        campaign_obs = merge_rollups(()) if self.obs_dir is not None else None
        for record in self.store.records():
            if record.status == STATUS_OK:
                done.add(record.task_id)
                campaign_obs = _fold_obs(campaign_obs, record)
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
        try:
            for record in self._results(pending):
                # Store first, ledger second: a ledger task_finished
                # always implies a durable store record, never the
                # other way around.
                self.store.append(record)
                campaign_obs = _fold_obs(campaign_obs, record)
                if stream is not None:
                    self._emit_finished(stream, record)
                outcome.executed.append(record)
                if self.progress is not None:
                    self.progress(len(outcome.executed), len(pending), record)
            if stream is not None:
                with self._stream_lock:
                    stream.emit(ProgressEvent(
                        kind="campaign_finished", time=time.time(),
                        data={"executed": len(outcome.executed)},
                    ))
        finally:
            if stream is not None:
                stream.close()
                self._stream_state = None
        if campaign_obs is not None:
            self._write_campaign_rollup(campaign_obs)
        outcome.wall_time = time.perf_counter() - started
        return outcome

    def _emit_finished(self, stream: CampaignStream, record: TaskRecord) -> None:
        """Ledger a completed record (parent-side, post-append)."""
        kind = "task_finished" if record.status == STATUS_OK else "task_errored"
        data: dict[str, Any] = {"wall_time": record.wall_time}
        if record.error is not None:
            data["error"] = record.error
        with self._stream_lock:
            stream.emit(ProgressEvent(
                kind=kind, time=time.time(),
                task_id=record.task_id, data=data,
            ))

    def _write_campaign_rollup(self, merged: dict[str, Any]) -> None:
        """Write the campaign's folded obs rollup to one file.

        ``merged`` covers every stored ``ok`` record (see :meth:`run`),
        so a resumed campaign aggregates everything — earlier sessions
        included — and ``campaign_obs.json`` reflects the store's
        complete state.
        """
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
    in-memory) or a bare path, which opens a single-file JSONL store at
    that location.
    """
    if isinstance(store, (str, Path)):
        store = ResultStore(store)
    return FleetRunner(
        spec, store, jobs=jobs, progress=progress, obs_dir=obs_dir,
        stream=stream,
    ).run()
