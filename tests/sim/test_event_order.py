"""Ordering fixtures for the event queue, plus a lockstep fuzzer.

:class:`repro.sim.events.EventQueue` must pop in ``(time, priority,
sequence)`` order with the right ``len()`` and ``peek_time`` for every
schedule.  Each test here targets one shape:

* same-instant FIFO among interleaved near and far traffic, priorities
  at one instant, and times a hair either side of 8 s,
* timers exactly at ``pop_next(until=...)``,
* far-future timers, up to ``9e9`` s and ``inf``,
* schedule-cancel-reschedule storms (dead entries interleaved with live
  ones),
* an 80-seed randomized lockstep fuzzer driving the queue and a naive
  list reference (:class:`ListReference`) through one op sequence and
  requiring identical observable streams.

Plus the ``clear()`` bookkeeping pins: clear must reset the live/dead
counters and cancel-detach every pending handle, so a queue is fully
reusable afterwards; and the handle-lifetime pins: handles are plain
allocations that stay truthful once retained and never sit in a
reference cycle.
"""

import gc
import random

import pytest

from repro.sim.engine import Engine
from repro.sim.events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    Event,
    EventQueue,
)
from repro.sim.process import Timer

INF = float("inf")

#: Far times of every magnitude a schedule can reach, from under a
#: second to ~285 simulated years.
FAR_TIMES = (0.5, 100.0, 1.0e4, 1.0e6, 9.0e9)


class ListReference:
    """The ordering contract in its most obvious form: a plain list, and
    a pop that takes the least live ``(time, priority, sequence)`` key.

    ``push`` and ``post`` share one sequence counter, as in the queue, so
    both number events identically.
    """

    def __init__(self):
        self.events = []
        self.sequence = 0

    def push(self, time, callback, args=(), priority=PRIORITY_NORMAL):
        event = Event(time, priority, self.sequence, callback, args)
        self.sequence += 1
        self.events.append(event)
        return event

    def post(self, time, callback, args=(), priority=PRIORITY_NORMAL):
        self.push(time, callback, args, priority)

    def _first(self):
        live = [e for e in self.events if not e.cancelled]
        return min(live, default=None,
                   key=lambda e: (e.time, e.priority, e.sequence))

    def pop_next(self, until=None):
        event = self._first()
        if event is None or (until is not None and event.time > until):
            return None
        self.events.remove(event)
        return event

    def peek_time(self):
        event = self._first()
        return None if event is None else event.time

    def __len__(self):
        return sum(1 for e in self.events if not e.cancelled)


def drain(queue):
    """Pop everything and return the observable (time, prio, seq, tag) rows."""
    rows = []
    while True:
        event = queue.pop_next()
        if event is None:
            return rows
        rows.append(
            (event.time, event.priority, event.sequence, event.args[0])
        )


class TestSameInstantOrder:
    def test_same_instant_fifo(self):
        # 60 events at one instant, interleaved with near and far
        # traffic: FIFO among the equal-key events must hold throughout.
        queue = EventQueue()
        instant = 20.0
        tags = []
        for i in range(60):
            queue.push(instant, lambda: None, (("same", i),))
            tags.append(("same", i))
            if i % 3 == 0:
                queue.push(1.0 + i * 1e-3, lambda: None, (("near", i),))
            if i % 7 == 0:
                queue.push(instant * 10, lambda: None, (("far", i),))
        rows = drain(queue)
        same = [tag for _, _, _, tag in rows if tag[0] == "same"]
        assert same == tags
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))

    def test_priorities_break_ties(self):
        queue = EventQueue()
        instant = 24.0
        queue.push(instant, lambda: None, ("normal",), priority=PRIORITY_NORMAL)
        queue.push(instant, lambda: None, ("late",), priority=PRIORITY_LATE)
        queue.push(instant, lambda: None, ("early",), priority=PRIORITY_EARLY)
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["early", "normal", "late"]

    def test_times_near_8s_stay_ordered(self):
        # Exactly on 8 s and 2**-20 s (about a microsecond) either side
        # of it, pushed in reverse order.
        queue = EventQueue()
        step = 2.0 ** -20
        for tag, time in [
            ("above", 8.0 + step),
            ("on", 8.0),
            ("below", 8.0 - step),
        ]:
            queue.push(time, lambda: None, (tag,))
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["below", "on", "above"]


class TestUntilBoundary:
    def test_event_exactly_at_until_is_popped(self):
        queue = EventQueue()
        queue.push(7.0, lambda: None, ("at",))
        queue.push(7.0 + 2.0 ** -20, lambda: None, ("after",))
        event = queue.pop_next(until=7.0)
        assert event is not None and event.args == ("at",)
        assert queue.pop_next(until=7.0) is None
        assert len(queue) == 1  # the later event stayed queued

    def test_until_at_far_event(self):
        # `until` exactly at a far event's time is inclusive; one step
        # earlier leaves it queued.
        queue = EventQueue()
        far = 40.0
        queue.push(far, lambda: None, ("far",))
        assert queue.pop_next(until=far - 2.0 ** -20) is None
        assert len(queue) == 1
        event = queue.pop_next(until=far)
        assert event is not None and event.time == far
        assert len(queue) == 0

    def test_peek_time_after_denied_until(self):
        queue = EventQueue()
        queue.push(24.0, lambda: None, ("x",))
        assert queue.pop_next(until=1.0) is None
        assert queue.peek_time() == 24.0


class TestFarFutureTimers:
    def test_far_times_pop_in_order(self):
        queue = EventQueue()
        rng = random.Random(11)
        times = [t for t in FAR_TIMES for _ in range(5)]
        rng.shuffle(times)
        for i, time in enumerate(times):
            queue.push(time, lambda: None, (i,))
        rows = drain(queue)
        assert [row[0] for row in rows] == sorted(times)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))

    def test_infinity_fires_last(self):
        queue = EventQueue()
        queue.push(INF, lambda: None, ("inf",))
        queue.push(9.0e9, lambda: None, ("huge",))
        queue.push(0.25, lambda: None, ("soon",))
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["soon", "huge", "inf"]

    def test_post_at_far_times(self):
        queue = EventQueue()
        fired = []
        for i, time in enumerate(FAR_TIMES):
            queue.post(time, fired.append, (i,))
        while queue:
            queue.pop().fire()
        assert fired == list(range(len(FAR_TIMES)))


class TestRescheduleStorm:
    def test_schedule_cancel_reschedule_storm(self):
        # DPD-reset shape at every distance: each round cancels the
        # previous handle of a chain and re-arms it at a random far time.
        # Exactly one survivor per chain may fire, in global key order.
        queue = EventQueue()
        rng = random.Random(23)
        chains = {}
        for round_no in range(600):
            chain = rng.randrange(40)
            if chain in chains:
                chains[chain][0].cancel()
            time = rng.choice(FAR_TIMES) + rng.random()
            event = queue.push(time, lambda: None, ((chain, round_no),))
            chains[chain] = (event, time)
        assert len(queue) == len(chains)
        rows = drain(queue)
        assert len(rows) == len(chains)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        survivors = {tag[0] for _, _, _, tag in rows}
        assert survivors == set(chains)

    def test_storm_live_counter_stays_exact(self):
        queue = EventQueue()
        events = []
        for i in range(500):
            events.append(queue.push(0.1 + (i % 9) * 8.0,
                                     lambda: None, (i,)))
            if i % 2:
                events[i // 2].cancel()
        expected = sum(1 for e in events if not e.cancelled)
        assert len(queue) == expected
        assert len(drain(queue)) == expected


class TestCoreParityFuzzer:
    """Drive the queue and :class:`ListReference` through one op stream.

    Every observable — pop results, denied pops, peek times, lengths —
    must match exactly.  DELTAS mixes same-instant, near, 8 s, far and
    infinite offsets.
    """

    DELTAS = (0.0, 1e-6, 0.5, 7.999999, 8.0, 9.5, 300.0, 2.0e4, 9.0e9, INF)
    PRIORITIES = (PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_LATE)

    @pytest.mark.parametrize("seed", range(80))
    def test_lockstep_streams_identical(self, seed):
        rng = random.Random(seed)
        queues = (EventQueue(), ListReference())
        handles = []  # (queue_event, reference_event) pairs, index-aligned
        streams = ([], [])
        cursor = 0.0
        for _ in range(300):
            op = rng.random()
            if op < 0.45:
                time = cursor + rng.choice(self.DELTAS)
                priority = rng.choice(self.PRIORITIES)
                tag = len(handles)
                handles.append(tuple(
                    q.push(time, lambda: None, (tag,), priority=priority)
                    for q in queues
                ))
            elif op < 0.60:
                time = cursor + rng.choice(self.DELTAS)
                priority = rng.choice(self.PRIORITIES)
                for q in queues:
                    q.post(time, lambda: None, ("post",), priority=priority)
            elif op < 0.75 and handles:
                for event in rng.choice(handles):
                    event.cancel()
            elif op < 0.90:
                until = (
                    None if rng.random() < 0.3
                    else cursor + rng.choice(self.DELTAS)
                )
                for stream, q in zip(streams, queues):
                    event = q.pop_next(until=until)
                    if event is None:
                        stream.append(None)
                    else:
                        stream.append(
                            (event.time, event.priority, event.sequence,
                             event.args[0])
                        )
                        if event.time < INF:
                            cursor = max(cursor, event.time)
            else:
                for stream, q in zip(streams, queues):
                    stream.append(("peek", q.peek_time(), len(q)))
            assert len(queues[0]) == len(queues[1])
        for stream, q in zip(streams, queues):
            stream.extend(drain(q))
        assert streams[0] == streams[1]


class TestClearBookkeeping:
    """``clear()`` must leave the queue indistinguishable from a fresh
    one (modulo the monotone sequence counter)."""

    def test_clear_resets_live_and_dead_counters(self):
        queue = EventQueue()
        events = [
            queue.push(0.1 + (i % 7) * 8.0, lambda: None, (i,))
            for i in range(100)
        ]
        for event in events[:30]:
            event.cancel()
        queue.clear()
        assert len(queue) == 0
        assert not queue
        assert queue._live == 0
        assert queue._dead == 0
        assert queue.peek_time() is None
        assert queue.pop_next() is None

    def test_clear_cancel_detaches_retained_handles(self):
        queue = EventQueue()
        handles = [
            queue.push(0.5 + i * 8.0, lambda: None, (i,))
            for i in range(5)
        ]
        queue.clear()
        # A handle retained across the clear tells the truth: the event
        # will never fire.  A late cancel must stay a no-op rather than
        # driving the live counter negative.
        for handle in handles:
            assert handle.cancelled
            handle.cancel()
        assert len(queue) == 0
        queue.push(1.0, lambda: None, ("fresh",))
        assert len(queue) == 1

    def test_reuse_after_far_schedule(self):
        # A queue that was asked about a far event, then cleared, serves
        # an early push on reuse.
        queue = EventQueue()
        queue.push(1.0e6, lambda: None, ("far",))
        assert queue.pop_next(until=1.0e6 - 1.0) is None
        queue.clear()
        queue.push(0.25, lambda: None, ("early",))
        assert queue.peek_time() == 0.25
        event = queue.pop_next()
        assert event is not None and event.args == ("early",)

    def test_clear_inside_a_run_fires_nothing_more(self):
        # The run loop holds the heap list, so clear() must empty that
        # list: nothing pending may fire, and the counters stay at zero.
        engine = Engine()
        fired = []
        engine.call_at(1.0, engine._queue.clear)
        engine.post_at(2.0, fired.append, "posted")
        engine.call_at(3.0, fired.append, "pushed")
        engine.run()
        assert fired == []
        assert (engine._queue._live, engine._queue._dead) == (0, 0)

    def test_reuse_after_clear_preserves_ordering(self):
        queue = EventQueue()
        for i in range(50):
            queue.push(float(i % 5), lambda: None, (("old", i),))
        queue.clear()
        for i in range(50):
            queue.push(float((i * 7) % 13) + 0.5, lambda: None, (("new", i),))
        rows = drain(queue)
        assert len(rows) == 50
        assert all(tag[0] == "new" for _, _, _, tag in rows)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))


class TestHandleLifetime:
    def test_retained_handle_stays_truthful(self):
        # Handles are plain allocations, never recycled: one retained
        # past being drained as cancelled, or past firing, keeps its own
        # schedule, and a late cancel() stays a harmless no-op.
        queue = EventQueue()

        def callback(tag):
            pass

        held = queue.push(10.0, callback, ("held",), priority=PRIORITY_LATE)
        held.cancel()
        live = queue.push(20.0, callback, ("live",))
        assert queue.pop_next() is live  # drains held's entry on the way
        assert held.cancelled and not live.cancelled
        for handle, expected in (
            (held, (10.0, PRIORITY_LATE, 0, ("held",))),
            (live, (20.0, PRIORITY_NORMAL, 1, ("live",))),
        ):
            assert (handle.time, handle.priority, handle.sequence,
                    handle.args) == expected
            assert handle.callback is callback
            handle.cancel()
        assert len(queue) == 0
        queue.push(1.0, callback, ("fresh",))
        assert len(queue) == 1

    def test_drained_engine_leaves_no_event_for_the_collector(self):
        # The entry tuple holds its Event; were the Event to hold the
        # entry back, every handle would be a cycle that only the cyclic
        # collector frees.  With the collector off, a drained and dropped
        # engine must leave no Event behind.
        gc.collect()
        gc.disable()
        try:
            engine = Engine()
            timer = Timer(engine, 1e-3, lambda: None)
            timer.start()
            storm = [
                engine.call_later(1e-4 * i + (i % 4) * 16.0, lambda: None)
                for i in range(2_000)
            ]
            for event in storm:
                event.cancel()
            del storm, event
            assert engine.run(max_events=10_000) == 10_000
            timer.stop()
            engine.run()
            assert engine.pending_events == 0
            del engine, timer
            leaked = sum(1 for obj in gc.get_objects() if type(obj) is Event)
        finally:
            gc.enable()
        assert leaked == 0
