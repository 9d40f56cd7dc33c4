"""Tests for repro.sim.engine."""

import pytest

from repro.sim.engine import Engine, EngineEventLimitError


class TestScheduling:
    def test_call_later_advances_clock(self, engine):
        times = []
        engine.call_later(1.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [1.5]
        assert engine.now == 1.5

    def test_call_at_absolute(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.run()
        fired = []
        engine.call_at(2.0, fired.append, "x")
        engine.run()
        assert fired == ["x"]

    def test_cannot_schedule_in_past(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match="before current time"):
            engine.call_at(0.5, lambda: None)

    def test_call_at_rejects_nan(self, engine):
        with pytest.raises(ValueError, match="before current time"):
            engine.call_at(float("nan"), lambda: None)
        assert engine.pending_events == 0

    def test_post_at_rejects_nan(self, engine):
        with pytest.raises(ValueError, match="before current time"):
            engine.post_at(float("nan"), lambda: None)
        assert engine.pending_events == 0

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError, match="delay"):
            engine.call_later(-1.0, lambda: None)

    @pytest.mark.parametrize(
        "method", ["call_at", "call_later", "post_at", "post_later"]
    )
    def test_rejects_infinity(self, engine, method):
        """Firing an event at ``inf`` would strand the clock there."""
        with pytest.raises(ValueError, match="finite"):
            getattr(engine, method)(float("inf"), lambda: None)
        assert engine.pending_events == 0
        engine.call_later(1.0, lambda: None)
        engine.run(until=5.0)
        assert engine.now == 5.0

    def test_events_scheduled_during_run_execute(self, engine):
        order = []

        def first():
            order.append("first")
            engine.call_later(1.0, lambda: order.append("second"))

        engine.call_later(1.0, first)
        engine.run()
        assert order == ["first", "second"]
        assert engine.now == 2.0


class TestRunLimits:
    def test_until_stops_before_later_events(self, engine):
        fired = []
        engine.call_later(1.0, fired.append, 1)
        engine.call_later(5.0, fired.append, 5)
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0  # clock advanced to the horizon
        engine.run()
        assert fired == [1, 5]

    def test_max_events(self, engine):
        fired = []
        for i in range(5):
            engine.call_later(float(i + 1), fired.append, i)
        count = engine.run(max_events=2)
        assert count == 2
        assert fired == [0, 1]

    def test_stop_inside_callback(self, engine):
        fired = []

        def stopper():
            fired.append("stop")
            engine.stop()

        engine.call_later(1.0, stopper)
        engine.call_later(2.0, fired.append, "after")
        engine.run()
        assert fired == ["stop"]

    def test_run_not_reentrant(self, engine):
        def nested():
            with pytest.raises(RuntimeError, match="not reentrant"):
                engine.run()

        engine.call_later(1.0, nested)
        engine.run()

    def test_counters(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.call_later(2.0, lambda: None)
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0
        assert engine.events_processed == 2

    def test_empty_run_returns_zero(self, engine):
        assert engine.run() == 0


class TestPendingEventsAccounting:
    def test_cancel_then_run_accounting(self, engine):
        keep = []
        event = engine.call_later(1.0, keep.append, "cancelled")
        engine.call_later(2.0, keep.append, "kept")
        assert engine.pending_events == 2
        event.cancel()
        assert engine.pending_events == 1
        engine.run()
        assert keep == ["kept"]
        assert engine.pending_events == 0
        assert engine.events_processed == 1

    def test_cancel_inside_callback_updates_pending(self, engine):
        later = engine.call_later(5.0, lambda: None)
        engine.call_later(1.0, later.cancel)
        assert engine.pending_events == 2
        assert engine.run() == 1
        assert engine.pending_events == 0

    def test_until_keeps_future_events_pending(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.call_later(5.0, lambda: None)
        engine.run(until=2.0)
        assert engine.pending_events == 1


class TestDeterminism:
    def test_identical_runs_identical_order(self):
        def run_once() -> list[int]:
            engine = Engine()
            order: list[int] = []
            for i in range(20):
                engine.call_later((i % 5) * 0.25, order.append, i)
            engine.run()
            return order

        assert run_once() == run_once()


class TestHardEventLimit:
    def _self_rescheduling(self, engine: Engine) -> None:
        def tick() -> None:
            engine.call_later(1e-9, tick)

        engine.call_later(0.0, tick)

    def test_runaway_schedule_raises_clear_error(self):
        engine = Engine(hard_event_limit=100)
        self._self_rescheduling(engine)
        with pytest.raises(EngineEventLimitError, match="hard_event_limit=100"):
            engine.run()
        assert engine.events_processed == 101

    def test_error_suggests_the_likely_cause(self):
        engine = Engine(hard_event_limit=10)
        self._self_rescheduling(engine)
        with pytest.raises(EngineEventLimitError, match="self-rescheduling"):
            engine.run()

    def test_no_limit_by_default(self, engine):
        for i in range(1000):
            engine.call_later(i * 1e-6, lambda: None)
        assert engine.run() == 1000

    def test_run_below_the_limit_is_unaffected(self):
        engine = Engine(hard_event_limit=1000)
        fired = []
        for i in range(5):
            engine.call_later(i * 1e-6, fired.append, i)
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_class_default_applies_to_new_engines(self):
        previous = Engine.default_hard_event_limit
        Engine.default_hard_event_limit = 50
        try:
            engine = Engine()
            assert engine.hard_event_limit == 50
            self._self_rescheduling(engine)
            with pytest.raises(EngineEventLimitError):
                engine.run()
        finally:
            Engine.default_hard_event_limit = previous

    def test_explicit_limit_overrides_class_default(self):
        previous = Engine.default_hard_event_limit
        Engine.default_hard_event_limit = 50
        try:
            assert Engine(hard_event_limit=7).hard_event_limit == 7
        finally:
            Engine.default_hard_event_limit = previous

    def test_limit_counts_lifetime_events(self):
        engine = Engine(hard_event_limit=10)
        for i in range(8):
            engine.call_later(i * 1e-6, lambda: None)
        engine.run()
        for i in range(8):
            engine.call_later(1.0 + i * 1e-6, lambda: None)
        with pytest.raises(EngineEventLimitError):
            engine.run()
