"""``repro top``: a refreshing terminal dashboard over a progress ledger.

The dashboard is a pure function of a :class:`~repro.obs.stream.CampaignView`
(:func:`render_dashboard`), which is itself a pure fold of the ledger —
so the same frame renders from a live ``progress.jsonl`` being appended
by a running fleet, from the finished file after the run, or from the
torn ledger a ``kill -9`` left behind.  The follow loop tails the file
incrementally (:class:`~repro.obs.stream.LedgerTail`); nothing here
talks to the runner.

Worker health reuses the GREEN/YELLOW/RED machinery from
:mod:`repro.obs.health` — per-signal :func:`~repro.obs.health.signal_level`
plus the same anti-flap :func:`~repro.obs.health.vote` — over
liveness-flavored signals: heartbeat age, error count, and how far the
current task has run past the campaign's mean wall time.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Mapping, TextIO

from repro.obs.health import HealthState, signal_level, vote
from repro.obs.stream import CampaignView, LedgerTail, WorkerStatus

__all__ = [
    "WORKER_THRESHOLDS",
    "find_ledger",
    "render_dashboard",
    "run_top",
    "worker_health",
]

#: (yellow, red) boundaries per worker signal; values >= boundary trip.
#: ``heartbeat_age`` is seconds since the worker's last event,
#: ``errors`` its errored-task count, ``stall_factor`` the current
#: task's runtime as a multiple of the campaign mean wall time.
WORKER_THRESHOLDS: Mapping[str, tuple[float, float]] = {
    "heartbeat_age": (15.0, 60.0),
    "errors": (1.0, 5.0),
    "stall_factor": (5.0, 25.0),
}

#: Screen reset: clear + home.  Written once per follow-mode frame.
ANSI_CLEAR = "\x1b[2J\x1b[H"


def worker_health(
    worker: WorkerStatus, view: CampaignView, now: float
) -> HealthState:
    """Vote a worker's liveness signals into GREEN/YELLOW/RED.

    A finished campaign's workers are all GREEN by definition — their
    silence is completion, not wedging.
    """
    if view.finished:
        return HealthState.GREEN
    signals = {
        "heartbeat_age": max(0.0, now - worker.last_seen),
        "errors": float(worker.errors),
        "stall_factor": _stall_factor(worker, view, now),
    }
    levels = [
        signal_level(value, *WORKER_THRESHOLDS[name])
        for name, value in signals.items()
    ]
    return vote(levels)


def _stall_factor(
    worker: WorkerStatus, view: CampaignView, now: float
) -> float:
    if worker.current_task is None:
        return 0.0
    mean = view.mean_wall_time()
    if mean <= 0.0:
        return 0.0
    return max(0.0, now - worker.task_started_at) / mean


def _format_duration(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60.0:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _format_bytes(count: float) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"


def render_dashboard(view: CampaignView, now: float | None = None) -> str:
    """Render one dashboard frame from a campaign view.

    ``now`` defaults to the view's last event time, which is what makes
    a replayed finished ledger render *identically* to the live frame
    the runner's watcher drew at that same event — the acceptance
    property ``repro top`` is pinned by.
    """
    if now is None:
        now = view.last_time
    status = "FINISHED" if view.finished else "RUNNING"
    done, total = view.done, view.total
    percent = (100.0 * done / total) if total else 0.0
    lines = [
        f"campaign {view.campaign or '?'}  [{status}]"
        f"  jobs={view.jobs}  runs={view.runs}",
        f"tasks  {done}/{total} ({percent:.1f}%)  errors={view.errors}"
        f"  skipped={view.skipped}  running={len(view.running)}"
        + (f"  recovered={len(view.recovered)}" if view.recovered else ""),
    ]
    rate = view.throughput()
    eta = view.eta_seconds()
    lines.append(
        f"rate   {rate:.2f} tasks/s"
        f"  eta {_format_duration(eta) if eta is not None else '-'}"
        f"  mean wall {view.mean_wall_time():.3f}s"
    )
    if view.workers:
        lines.append("")
        lines.append(
            f"{'worker':<12} {'state':<7} {'done':>5} {'err':>4} "
            f"{'cpu_s':>8} {'rss':>9} {'age':>6}  current"
        )
        for name in sorted(view.workers):
            worker = view.workers[name]
            state = worker_health(worker, view, now)
            age = max(0.0, now - worker.last_seen)
            lines.append(
                f"{name:<12} {state.label:<7} {worker.tasks_done:>5} "
                f"{worker.errors:>4} {worker.cpu_time:>8.2f} "
                f"{_format_bytes(worker.rss_bytes):>9} "
                f"{_format_duration(age):>6}  {worker.current_task or '-'}"
            )
    outliers = view.worst_outliers()
    if outliers:
        lines.append("")
        lines.append("worst tasks (wall_s  task_id)")
        for wall, task_id in outliers:
            lines.append(f"  {wall:>8.3f}  {task_id}")
    if view.errored:
        lines.append("")
        lines.append("errored tasks")
        for task_id in sorted(view.errored)[:5]:
            message = view.errored[task_id]
            lines.append(f"  {task_id}: {message[:80]}")
        if len(view.errored) > 5:
            lines.append(f"  ... and {len(view.errored) - 5} more")
    return "\n".join(lines)


def find_ledger(run_dir: str | Path) -> Path:
    """Resolve a ``repro top`` argument to a ledger file.

    Accepts the ledger path itself, a campaign out dir containing
    ``progress.jsonl``, or a parent holding exactly one such dir.
    """
    path = Path(run_dir)
    if path.is_file():
        return path
    candidate = path / "progress.jsonl"
    if candidate.exists():
        return candidate
    matches = sorted(path.glob("*/progress.jsonl")) if path.is_dir() else []
    if len(matches) == 1:
        return matches[0]
    raise FileNotFoundError(
        f"no progress.jsonl under {path} (was the run streamed? "
        f"pass --stream/--watch to fleet, or point at the ledger file)"
    )


def run_top(
    run_dir: str | Path,
    follow: bool = True,
    refresh: float = 1.0,
    once: bool = False,
    out: TextIO | None = None,
    max_frames: int | None = None,
) -> CampaignView:
    """Render the dashboard for a run directory; returns the final view.

    ``once`` (or ``follow=False``) renders a single frame from the
    ledger as it stands.  Follow mode clears the screen and re-renders
    every ``refresh`` seconds until the ledger says
    ``campaign_finished`` (or the user interrupts).  ``max_frames``
    bounds the loop for tests.
    """
    import sys

    stream = out if out is not None else sys.stdout
    ledger = find_ledger(run_dir)
    if once or not follow:
        view = CampaignView.replay(ledger)
        print(render_dashboard(view), file=stream)
        return view
    view = CampaignView()
    tail = LedgerTail(ledger)
    frames = 0
    try:
        while True:
            for event in tail.poll():
                view.fold(event)
            stream.write(ANSI_CLEAR)
            # Live frames age heartbeats against the wall clock so a
            # wedged worker visibly goes YELLOW/RED between events.
            print(
                render_dashboard(
                    view, now=None if view.finished else time.time()
                ),
                file=stream,
            )
            stream.flush()
            frames += 1
            if view.finished:
                break
            if max_frames is not None and frames >= max_frames:
                break
            time.sleep(refresh)
    except KeyboardInterrupt:
        pass
    return view
