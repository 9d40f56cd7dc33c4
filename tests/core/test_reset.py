"""Tests for endpoint resets (:class:`repro.faults.Reset`) and their triggers."""

import pytest

from repro.core.protocol import build_protocol
from repro.faults import FaultEnv, Reset
from repro.sim.engine import Engine


def started_saves(store):
    """Every SAVE ``store`` starts from now on, in start order."""
    started = []

    def on_save(record):
        if not record.committed:  # listeners fire at start and at commit
            started.append(record)

    store.add_listener(on_save)
    return started


class TestResetAtTime:
    def test_fires_at_time(self):
        harness = build_protocol()
        Reset(at=0.001, down_time=0.0001).apply(FaultEnv.of(harness))
        harness.sender.start_traffic(count=500)
        harness.run(until=1.0)
        assert len(harness.sender.reset_records) == 1
        assert harness.sender.reset_records[0].reset_time == pytest.approx(0.001)


class TestResetAtCount:
    def test_sender_count(self):
        harness = build_protocol()
        Reset(after_sends=100, down_time=0.0001).apply(FaultEnv.of(harness))
        harness.sender.start_traffic(count=300)
        harness.run(until=1.0)
        record = harness.sender.reset_records[0]
        assert record.last_used_seq == 100

    def test_receiver_count(self):
        harness = build_protocol()
        Reset(side="receiver", after_sends=50, down_time=0.0001).apply(
            FaultEnv.of(harness)
        )
        harness.sender.start_traffic(count=300)
        harness.run(until=1.0)
        record = harness.receiver.reset_records[0]
        assert record.right_edge_at_reset == 50

    def test_fires_only_once(self):
        harness = build_protocol()
        Reset(after_sends=10).apply(FaultEnv.of(harness))
        harness.sender.start_traffic(count=100)
        harness.run(until=1.0)
        assert len(harness.sender.reset_records) == 1

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            Reset(after_sends=0)

    def test_rejects_unsupported_target(self):
        with pytest.raises(TypeError):
            Reset(after_sends=5).apply(FaultEnv(Engine(), sender=object()))


class TestResetDuringSave:
    def test_strikes_inside_nth_save(self):
        harness = build_protocol(k_p=50)
        store = harness.sender.store
        started = started_saves(store)
        Reset(during_save=2, fraction=0.5, down_time=0.0001).apply(
            FaultEnv.of(harness)
        )
        harness.sender.start_traffic(count=400)
        harness.run(until=1.0)
        record = harness.sender.reset_records[0]
        assert record.save_in_flight
        # Second background save stores 101; struck halfway through.
        aborted = [r for r in started if r.aborted]
        assert [r.value for r in aborted] == [101]
        assert record.reset_time == pytest.approx(
            aborted[0].started_at + 0.5 * store.t_save
        )

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            Reset(during_save=1, fraction=1.0)

    def test_nth_validated(self):
        with pytest.raises(ValueError):
            Reset(during_save=0)

    def test_synchronous_wake_save_counts(self):
        harness = build_protocol(k_p=25)
        store = harness.sender.store
        started = started_saves(store)
        # Arm on SAVE start #2; a manual reset first makes #2 the
        # post-wake synchronous SAVE, which counts like any other.
        Reset(during_save=2, down_time=0.0).apply(FaultEnv.of(harness))
        harness.sender.send_burst(26)  # background save #1
        harness.run(until=0.01)
        harness.sender.reset(down_for=0.0)  # wake save is synchronous
        harness.run(until=0.02)
        assert [r.synchronous for r in started] == [False, True, True]
        assert len(harness.sender.reset_records) == 2
        struck = harness.sender.reset_records[1]
        assert struck.reset_time == pytest.approx(
            started[1].started_at + 0.5 * store.t_save
        )


class TestResetList:
    def test_list_of_timed_resets(self):
        harness = build_protocol()
        env = FaultEnv.of(harness)
        for at in (0.001, 0.003, 0.005):
            Reset(at=at, down_time=0.0001).apply(env)
        harness.sender.start_traffic(count=2000)
        harness.run(until=1.0)
        assert len(harness.sender.reset_records) == 3

    def test_reset_storm_still_converges(self):
        """Repeated resets: every cycle recovers, nothing replayable."""
        harness = build_protocol(k_p=25, k_q=25)
        env = FaultEnv.of(harness)
        for at in (0.001, 0.003, 0.005, 0.007):
            Reset(at=at, down_time=0.0003).apply(env)
        harness.sender.start_traffic(count=3000)
        harness.run(until=1.0)
        report = harness.score()
        assert report.sender_resets == 4
        assert report.converged, report.bound_violations

    def test_validation(self):
        with pytest.raises(ValueError):
            Reset(at=-1.0)
        with pytest.raises(ValueError):
            Reset(at=0.0, down_time=-1.0)
