"""Tests for repro.sim.process (SimProcess and Timer)."""

import pytest

from repro.sim.process import SimProcess, Timer


class TestSimProcess:
    def test_now_tracks_engine(self, engine):
        process = SimProcess(engine, "x")
        engine.call_later(3.0, lambda: None)
        engine.run()
        assert process.now == 3.0

    def test_trace_records_with_name(self, engine):
        process = SimProcess(engine, "worker")
        process.trace("did_thing", value=7)
        record = engine.trace.last(source="worker")
        assert record is not None
        assert record.kind == "did_thing"
        assert record.detail["value"] == 7

    def test_call_later_helper(self, engine):
        process = SimProcess(engine, "x")
        fired = []
        process.call_later(1.0, fired.append, "ok")
        engine.run()
        assert fired == ["ok"]


class TestTimer:
    def test_ticks_at_interval(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_first_delay_override(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start(first_delay=0.25)
        engine.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.run(until=1.5)
        timer.stop()
        engine.run(until=5.0)
        assert ticks == [1.0]
        assert not timer.running

    def test_stop_from_inside_callback_stays_stopped(self, engine):
        """Regression: a callback calling stop() must not be re-armed."""
        ticks = []
        timer = Timer(engine, 1.0, lambda: (ticks.append(engine.now), timer.stop()))
        timer.start()
        engine.run(until=10.0)
        assert ticks == [1.0]

    def test_restart_from_inside_callback_respected(self, engine):
        ticks = []

        def callback():
            ticks.append(engine.now)
            if len(ticks) == 1:
                timer.start(first_delay=0.5)  # take control once

        timer = Timer(engine, 1.0, callback)
        timer.start()
        engine.run(until=3.0)
        assert ticks == [1.0, 1.5, 2.5]

    def test_reset_restarts_period(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.call_later(0.75, timer.reset)
        engine.run(until=2.0)
        assert ticks == [1.75]

    def test_reset_when_stopped_is_noop(self, engine):
        timer = Timer(engine, 1.0, lambda: None)
        timer.reset()
        assert not timer.running

    def test_rejects_bad_interval(self, engine):
        with pytest.raises(ValueError, match="interval"):
            Timer(engine, 0.0, lambda: None)


class TestTimerRequeue:
    """A tick re-arms by re-queuing the event that fired: one Event object
    for the timer's whole run, and the queue's counters stay exact."""

    @staticmethod
    def counts(engine):
        queue = engine._queue
        return len(queue), queue._dead

    def test_a_tick_requeues_its_own_event(self, engine):
        timer = Timer(engine, 1.0, lambda: None)
        timer.start()
        event = timer._event
        assert self.counts(engine) == (1, 0)
        engine.run(until=3.5)
        assert timer._event is event and not event.cancelled
        assert (event.time, event.sequence) == (4.0, 3)
        assert self.counts(engine) == (1, 0)

    def test_requeued_tick_orders_as_a_new_push(self, engine):
        order = []
        timer = Timer(engine, 1.0, lambda: order.append("tick"))
        timer.start()
        # Queued before the first tick re-arms, so it fires first at 2.0.
        engine.call_at(2.0, order.append, "other")
        engine.run(until=2.0)
        assert order == ["tick", "other", "tick"]

    def test_stop_from_inside_callback_leaves_nothing_queued(self, engine):
        timer = Timer(engine, 1.0, lambda: timer.stop())
        timer.start()
        engine.run()
        assert engine.now == 1.0
        assert self.counts(engine) == (0, 0)

    def test_restart_from_inside_callback_allocates_once(self, engine):
        ticks = []

        def callback():
            ticks.append(engine.now)
            if len(ticks) == 1:
                timer.start(first_delay=0.5)

        timer = Timer(engine, 1.0, callback)
        timer.start()
        first = timer._event
        engine.run(until=1.0)
        # The restart made a new event; the fired one was not re-queued.
        assert timer._event is not first and first._queue is None
        assert self.counts(engine) == (1, 0)
        engine.run(until=3.0)
        assert ticks == [1.0, 1.5, 2.5]
        assert self.counts(engine) == (1, 0)

    def test_reset_from_inside_callback(self, engine):
        ticks = []

        def callback():
            ticks.append(engine.now)
            timer.reset()

        timer = Timer(engine, 1.0, callback)
        timer.start()
        engine.run(until=3.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert self.counts(engine) == (1, 0)

    def test_reset_keeps_cancel_and_allocate(self, engine):
        """DPD's inactivity re-arm: the pending event is cancelled (its
        entry stays until it reaches the top) and a new one is queued."""
        timer = Timer(engine, 1.0, lambda: None)
        timer.start(first_delay=0.5)
        pending = timer._event
        timer.reset()
        assert pending.cancelled and timer._event is not pending
        assert timer._event.time == 1.0
        assert self.counts(engine) == (1, 1)
        engine.run(until=1.0)
        assert self.counts(engine) == (1, 0)  # the dead entry was dropped

    def test_pause_and_start_at(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.run(until=1.5)
        assert timer.pause() == (2.0, engine.scheduled - 1)
        assert not timer.running and self.counts(engine) == (0, 1)
        timer.start_at(4.0)
        engine.run(until=5.0)
        assert ticks == [1.0, 4.0, 5.0]

    def test_pause_inside_callback_reports_the_unqueued_rearm(self, engine):
        paused = []
        timer = Timer(engine, 1.0, lambda: paused.append(timer.pause()))
        timer.start()
        engine.run()
        assert paused == [(2.0, None)]
        assert self.counts(engine) == (0, 0)
