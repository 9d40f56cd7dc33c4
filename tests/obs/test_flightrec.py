"""Tests for repro.obs.flightrec — the ring, dumps, and the SIGTERM hook."""

import json
import multiprocessing
import os
import signal

from repro.obs.export import validate_flight_dump
from repro.obs.flightrec import (
    FLIGHT_SCHEMA,
    RING_LIMIT,
    FlightRecorder,
    flight_path,
    load_flight,
)


class TestFlightRecorder:
    def test_ring_bounds_and_dropped_count(self):
        flight = FlightRecorder("w1")
        for index in range(RING_LIMIT + 6):
            flight.note("tick", time=float(index))
        assert flight.recorded == RING_LIMIT + 6
        assert flight.dropped == 6
        snapshot = flight.snapshot("test")
        assert len(snapshot["events"]) == RING_LIMIT
        # The ring keeps the newest events.
        assert [e["time"] for e in snapshot["events"]] == [
            float(index) for index in range(6, RING_LIMIT + 6)
        ]

    def test_task_boundaries_manage_current_task(self):
        flight = FlightRecorder("w1")
        flight.task_started("t1", time=1.0)
        assert flight.current_task == "t1"
        flight.task_finished("t1", time=2.0, status="ok")
        assert flight.current_task is None

    def test_snapshot_is_schema_valid(self):
        flight = FlightRecorder("w1")
        flight.task_started("t1", time=1.0)
        flight.note("heartbeat", time=1.5)
        snapshot = flight.snapshot("unhandled_exception")
        assert snapshot["schema"] == FLIGHT_SCHEMA
        assert snapshot["current_task"] == "t1"
        assert validate_flight_dump(snapshot) == []

    def test_dump_round_trips_and_validates(self, tmp_path):
        flight = FlightRecorder("w3")
        flight.task_started("g0/s00001", time=1.0)
        target = flight.dump(tmp_path, "sigterm")
        assert target == flight_path(tmp_path, "w3")
        assert target.name == "flight_w3.json"
        dump = load_flight(target)
        assert dump["reason"] == "sigterm"
        assert dump["worker"] == "w3"
        assert validate_flight_dump(dump) == []
        # Atomic write: no temp file left behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_redump_replaces_previous(self, tmp_path):
        flight = FlightRecorder("w1")
        flight.dump(tmp_path, "first")
        flight.note("more", time=2.0)
        flight.dump(tmp_path, "second")
        dump = load_flight(flight_path(tmp_path, "w1"))
        assert dump["reason"] == "second"
        assert dump["recorded"] == 1

    def test_load_flight_rejects_non_object(self, tmp_path):
        path = tmp_path / "flight_bad.json"
        path.write_text("[1, 2]", encoding="utf-8")
        try:
            load_flight(path)
        except ValueError as exc:
            assert "not an object" in str(exc)
        else:
            raise AssertionError("expected ValueError")


def _sigterm_child(
    flight_dir: str, ready_path: str, mark_task_active: bool
) -> None:
    """Child process: install the worker SIGTERM hook, optionally mark a
    task in flight, then wait to be terminated by the test."""
    import time
    from pathlib import Path

    from repro.obs.flightrec import FlightRecorder

    flight = FlightRecorder("wchild")
    flight.note("booted", time=0.0)
    if mark_task_active:
        flight.task_started("task/under/test", time=1.0)

    def handler(signum, frame):
        if flight.current_task is not None:
            flight.dump(flight_dir, "sigterm")
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, handler)
    Path(ready_path).write_text("ready", encoding="utf-8")
    while True:
        time.sleep(0.05)


class TestSigtermDump:
    def run_child(self, tmp_path, mark_task_active):
        import time

        ready_path = tmp_path / "ready"
        ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(
            target=_sigterm_child,
            args=(str(tmp_path), str(ready_path), mark_task_active),
        )
        child.start()
        deadline = time.time() + 20.0
        while not ready_path.exists():
            assert time.time() < deadline, "child never became ready"
            time.sleep(0.02)
        child.terminate()
        child.join(timeout=10.0)
        # os._exit(128 + SIGTERM) in the handler, not a raw signal death.
        assert child.exitcode == 128 + signal.SIGTERM

    def test_sigterm_mid_task_dumps_flight(self, tmp_path):
        self.run_child(tmp_path, mark_task_active=True)
        dump = load_flight(flight_path(tmp_path, "wchild"))
        assert dump["reason"] == "sigterm"
        assert dump["current_task"] == "task/under/test"
        assert validate_flight_dump(dump) == []

    def test_sigterm_between_tasks_leaves_no_dump(self, tmp_path):
        # The guard that keeps a normal pool teardown from littering
        # flight files: no task in flight, no dump.
        self.run_child(tmp_path, mark_task_active=False)
        assert not flight_path(tmp_path, "wchild").exists()


class TestValidateFlightDump:
    def good(self):
        return json.loads(json.dumps(FlightRecorder("w1").snapshot("test")))

    def test_missing_schema_fails(self):
        dump = self.good()
        del dump["schema"]
        assert validate_flight_dump(dump)

    def test_event_without_kind_fails(self):
        flight = FlightRecorder("w1")
        flight.note("task_started", time=1.0)
        dump = flight.snapshot("test")
        del dump["events"][0]["kind"]
        assert validate_flight_dump(dump)

    def test_recorded_less_than_ring_fails(self):
        flight = FlightRecorder("w1")
        flight.note("tick")
        dump = flight.snapshot("test")
        dump["recorded"] = 0
        assert validate_flight_dump(dump)
