"""Tests for the persistent-memory model (SAVE/FETCH semantics)."""

import pytest

from repro.core.persistent import PersistentStore


@pytest.fixture
def store(engine):
    return PersistentStore(engine, "disk", t_save=0.1, t_fetch=0.05, initial_value=1)


class TestCommitLatency:
    def test_save_commits_after_t_save(self, engine, store):
        store.begin_save(10)
        assert store.committed_value == 1  # not yet
        assert store.save_in_flight
        engine.run()
        assert store.committed_value == 10
        assert not store.save_in_flight

    def test_commit_callback_fires_at_commit_time(self, engine, store):
        times = []
        store.begin_save(10, on_commit=lambda: times.append(engine.now))
        engine.run()
        assert times == [0.1]

    def test_fetch_returns_committed_only(self, engine, store):
        store.begin_save(5)
        assert store.fetch() == 1  # mid-save: previous value
        engine.run()
        assert store.fetch() == 5
        assert store.fetches == 2

    def test_fetch_delay(self, store):
        assert store.fetch_delay() == 0.05

    def test_initial_value_is_committed(self, store):
        """The SA-establishment write: FETCH works before any SAVE."""
        assert store.fetch() == 1


class TestCrashSemantics:
    def test_crash_aborts_in_flight(self, engine, store):
        store.begin_save(10)
        aborted = store.crash()
        assert aborted == 1
        engine.run()
        assert store.committed_value == 1  # previous value survives
        assert store.saves_aborted == 1
        assert store.saves_committed == 0

    def test_crash_with_nothing_in_flight(self, engine, store):
        store.begin_save(10)
        engine.run()
        assert store.crash() == 0
        assert store.committed_value == 10

    def test_committed_value_survives_crash(self, engine, store):
        store.begin_save(7)
        engine.run()
        store.crash()
        assert store.fetch() == 7

    def test_crash_aborts_all_overlapping(self, engine, store):
        store.begin_save(5)
        store.begin_save(6)
        assert store.crash() == 2

    def test_aborted_commit_callback_never_fires(self, engine, store):
        fired = []
        store.begin_save(10, on_commit=lambda: fired.append(True))
        store.crash()
        engine.run()
        assert fired == []


class TestOverlapAccounting:
    def test_max_concurrent_tracks_overlap(self, engine, store):
        store.begin_save(2)
        store.begin_save(3)
        store.begin_save(4)
        assert store.max_concurrent_saves == 3
        engine.run()
        assert store.committed_value == 4

    def test_sequential_saves_no_overlap(self, engine, store):
        store.begin_save(2)
        engine.run()
        store.begin_save(3)
        engine.run()
        assert store.max_concurrent_saves == 1

    def test_busy_time_accumulates(self, engine, store):
        store.begin_save(2)
        engine.run()
        store.begin_save(3)
        engine.run()
        assert store.busy_time == pytest.approx(0.2)


class TestListeners:
    def test_listener_sees_start_and_commit(self, engine, store):
        events = []
        store.add_listener(
            lambda record: events.append(
                ("commit" if record.committed else "start", record.value)
            )
        )
        store.begin_save(9)
        engine.run()
        assert events == [("start", 9), ("commit", 9)]

    def test_synchronous_flag_recorded(self, engine, store):
        record = store.begin_save(9, synchronous=True)
        assert record.synchronous
        engine.run()
        assert record.committed


class TestValidation:
    def test_negative_t_save_rejected(self, engine):
        with pytest.raises(ValueError):
            PersistentStore(engine, "d", t_save=-1.0)

    def test_zero_t_save_commits_via_event(self, engine):
        store = PersistentStore(engine, "d", t_save=0.0, initial_value=0)
        store.begin_save(3)
        assert store.committed_value == 0  # still event-ordered
        engine.run()
        assert store.committed_value == 3
