"""Crash flight recorder: a bounded ring of recent worker events.

Each fleet worker keeps the last N things it did — task boundaries,
heartbeats, engine milestones — in a fixed-size ring.  On an unhandled
exception or a SIGTERM mid-task the ring is dumped to
``flight_<worker>.json`` (schema :data:`FLIGHT_SCHEMA`) together with a
resource snapshot, so a torn task is diagnosable from the dump alone,
without rerunning the campaign.

The ring is append-only and O(1) per note; recording costs one deque
append on paths that already construct a progress event, which is why
the recorder can stay always-on whenever streaming is enabled.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Mapping

from repro.obs.resource import resource_snapshot

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "flight_path",
    "load_flight",
]

#: Flight-dump schema tag (bump on breaking shape changes).
FLIGHT_SCHEMA = "repro.obs/flight@1"

#: Ring capacity: the events a worker's recorder retains.
RING_LIMIT = 256


def flight_path(directory: str | Path, worker: str) -> Path:
    """Where ``worker``'s flight dump lands inside ``directory``."""
    return Path(directory) / f"flight_{worker}.json"


class FlightRecorder:
    """Bounded ring of a worker's recent events, dumpable on crash."""

    def __init__(self, worker: str) -> None:
        self.worker = worker
        self._ring: deque[dict[str, Any]] = deque(maxlen=RING_LIMIT)
        self.recorded = 0
        self.current_task: str | None = None

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since start."""
        return self.recorded - len(self._ring)

    def note(self, kind: str, time: float = 0.0, **detail: Any) -> None:
        """Record one event (oldest entry evicted once full)."""
        entry: dict[str, Any] = {"kind": kind, "time": time}
        if detail:
            entry.update(detail)
        self._ring.append(entry)
        self.recorded += 1

    def task_started(self, task_id: str, time: float = 0.0) -> None:
        self.current_task = task_id
        self.note("task_started", time=time, task_id=task_id)

    def task_finished(
        self, task_id: str, time: float = 0.0, **detail: Any
    ) -> None:
        self.current_task = None
        self.note("task_finished", time=time, task_id=task_id, **detail)

    def snapshot(self, reason: str) -> dict[str, Any]:
        """The JSON-safe dump body (schema-tagged)."""
        return {
            "schema": FLIGHT_SCHEMA,
            "worker": self.worker,
            "reason": reason,
            "current_task": self.current_task,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "resources": resource_snapshot(),
            "events": list(self._ring),
        }

    def dump(self, directory: str | Path, reason: str) -> Path:
        """Write the ring to ``flight_<worker>.json``; returns the path.

        Best-effort durable: written via a temp file + atomic rename so
        a dump interrupted by a second signal never leaves a torn JSON
        file behind (the previous complete dump, if any, survives).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        target = flight_path(directory, self.worker)
        tmp = target.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(self.snapshot(reason), sort_keys=True, indent=1),
            encoding="utf-8",
        )
        tmp.replace(target)
        return target


def load_flight(path: str | Path) -> dict[str, Any]:
    """Read a flight dump back (no validation — see
    :func:`repro.obs.export.validate_flight_dump`)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, Mapping):
        raise ValueError(f"{path}: flight dump is not an object")
    return dict(data)
