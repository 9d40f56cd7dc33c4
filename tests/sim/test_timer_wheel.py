"""Wheel-adversarial ordering fixtures, run against the wheel and its oracle.

The timer wheel (:class:`repro.sim.events.EventQueue`) must be
observationally identical to a plain binary heap (the test-side
:class:`heap_oracle.HeapEventQueue`): same pop order, same ``len()``,
same ``peek_time``, for every schedule — including the ones a wheel is
structurally tempted to get wrong.  Each test here targets one such
shape:

* same-tick FIFO across a cascade boundary (bucketing must never reorder
  equal-key entries),
* timers exactly at ``pop_next(until=...)`` and exactly on the front
  window boundary,
* far-future timers that land in every wheel level and the overflow list
  (including ``inf``, which cannot be bucketed at all),
* schedule-cancel-reschedule storms (dead entries interleaved with live
  ones in the same slots),
* an 80-seed randomized lockstep fuzzer driving both queues through the
  identical op sequence and requiring identical observable streams.

Plus the ``clear()`` bookkeeping pins: clear must reset the window and
live/dead counters and cancel-detach every pending handle, so a queue is
fully reusable afterwards; and the handle-lifetime pins: handles are
plain allocations that stay truthful once retained and never sit in a
reference cycle.
"""

import gc
import random

import pytest
from heap_oracle import HeapEventQueue

from repro.sim.engine import Engine
from repro.sim.events import (
    _FRONT_SPAN,
    _LEVELS,
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    TICK_HZ,
    Event,
    EventQueue,
)
from repro.sim.process import Timer

#: Seconds spanned by the wheel's front heap (the level-0 window).
FRONT_SECONDS = _FRONT_SPAN / TICK_HZ  # 8.0

#: One time per structural region of the wheel: front heap, levels 1-3,
#: and the beyond-horizon overflow list.
REGION_TIMES = (0.5, 100.0, 1.0e4, 1.0e6, 9.0e9)


@pytest.fixture(params=[HeapEventQueue, EventQueue], ids=["heap", "wheel"])
def core(request):
    """The heap oracle and the wheel; every test taking it runs on each."""
    return request.param


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


class TestCascadeBoundaryFifo:
    def test_same_tick_fifo_across_cascade(self, core):
        # 60 events at one instant beyond the front window (so the wheel
        # buckets them and later cascades the slot), interleaved with
        # near and far traffic.  FIFO among the equal-key events must
        # survive the bucket -> heapify round trip.
        queue = core()
        instant = 2.5 * FRONT_SECONDS
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

    def test_priorities_hold_across_cascade(self, core):
        queue = core()
        instant = 3.0 * FRONT_SECONDS
        queue.push(instant, lambda: None, ("normal",), priority=PRIORITY_NORMAL)
        queue.push(instant, lambda: None, ("late",), priority=PRIORITY_LATE)
        queue.push(instant, lambda: None, ("early",), priority=PRIORITY_EARLY)
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["early", "normal", "late"]

    def test_window_boundary_times_stay_ordered(self, core):
        # Exactly on, just below, and just above the 8 s front boundary:
        # the wheel routes these to different structures (front heap vs
        # level-1 slot) but the pop order must be seamless.
        queue = core()
        tick = 1.0 / TICK_HZ
        for tag, time in [
            ("above", FRONT_SECONDS + tick),
            ("on", FRONT_SECONDS),
            ("below", FRONT_SECONDS - tick),
        ]:
            queue.push(time, lambda: None, (tag,))
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["below", "on", "above"]


class TestUntilBoundary:
    def test_event_exactly_at_until_is_popped(self, core):
        queue = core()
        queue.push(7.0, lambda: None, ("at",))
        queue.push(7.0 + 1.0 / TICK_HZ, lambda: None, ("after",))
        event = queue.pop_next(until=7.0)
        assert event is not None and event.args == ("at",)
        assert queue.pop_next(until=7.0) is None
        assert len(queue) == 1  # the later event stayed queued

    def test_until_at_far_event_after_window_advance(self, core):
        # Reaching the event forces the wheel to advance its window and
        # cascade; `until` exactly at the event's time must still be
        # inclusive, and one tick earlier must leave it queued.
        queue = core()
        far = 5.0 * FRONT_SECONDS
        queue.push(far, lambda: None, ("far",))
        assert queue.pop_next(until=far - 1.0 / TICK_HZ) is None
        assert len(queue) == 1
        event = queue.pop_next(until=far)
        assert event is not None and event.time == far
        assert len(queue) == 0

    def test_peek_time_after_denied_until(self, core):
        queue = core()
        queue.push(3.0 * FRONT_SECONDS, lambda: None, ("x",))
        assert queue.pop_next(until=1.0) is None
        assert queue.peek_time() == 3.0 * FRONT_SECONDS


class TestFarFutureTimers:
    def test_every_wheel_region_pops_in_order(self, core):
        queue = core()
        rng = random.Random(11)
        times = [t for t in REGION_TIMES for _ in range(5)]
        rng.shuffle(times)
        for i, time in enumerate(times):
            queue.push(time, lambda: None, (i,))
        rows = drain(queue)
        assert [row[0] for row in rows] == sorted(times)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))

    def test_infinity_fires_last(self, core):
        # inf cannot be converted to a tick; the wheel must park it in
        # overflow rather than crash, and it sorts after everything finite.
        queue = core()
        queue.push(float("inf"), lambda: None, ("inf",))
        queue.push(9.0e9, lambda: None, ("huge",))
        queue.push(0.25, lambda: None, ("soon",))
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["soon", "huge", "inf"]

    def test_post_reaches_every_region(self, core):
        queue = core()
        fired = []
        for i, time in enumerate(REGION_TIMES):
            queue.post(time, fired.append, (i,))
        while queue:
            queue.pop().fire()
        assert fired == list(range(len(REGION_TIMES)))


class TestRescheduleStorm:
    def test_schedule_cancel_reschedule_storm(self, core):
        # DPD-reset shape, but hopping across wheel regions: each round
        # cancels the previous handle and re-arms at a different region.
        # Exactly one survivor per chain may fire, in global key order.
        queue = core()
        rng = random.Random(23)
        chains = {}
        for round_no in range(600):
            chain = rng.randrange(40)
            if chain in chains:
                chains[chain][0].cancel()
            time = rng.choice(REGION_TIMES) + rng.random()
            event = queue.push(time, lambda: None, ((chain, round_no),))
            chains[chain] = (event, time)
        assert len(queue) == len(chains)
        rows = drain(queue)
        assert len(rows) == len(chains)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        survivors = {tag[0] for _, _, _, tag in rows}
        assert survivors == set(chains)

    def test_storm_live_counter_stays_exact(self, core):
        queue = core()
        events = []
        for i in range(500):
            events.append(queue.push(0.1 + (i % 9) * FRONT_SECONDS,
                                     lambda: None, (i,)))
            if i % 2:
                events[i // 2].cancel()
        expected = sum(1 for e in events if not e.cancelled)
        assert len(queue) == expected
        assert len(drain(queue)) == expected


class TestCoreParityFuzzer:
    """Drive the wheel and the heap oracle through one op stream in lockstep.

    Every observable — pop results, denied pops, peek times, lengths —
    must match exactly.  DELTAS deliberately includes the 8 s window
    boundary and a beyond-horizon time so the stream constantly crosses
    wheel structures the heap oracle does not have.
    """

    DELTAS = (0.0, 1e-6, 0.5, 7.999999, 8.0, 9.5, 300.0, 2.0e4, 9.0e9)
    PRIORITIES = (PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_LATE)

    @pytest.mark.parametrize("seed", range(80))
    def test_lockstep_streams_identical(self, seed):
        rng = random.Random(seed)
        wheel, heap = EventQueue(), HeapEventQueue()
        handles = []  # (wheel_event, heap_event) pairs, index-aligned
        streams = ([], [])
        cursor = 0.0
        for _ in range(300):
            op = rng.random()
            if op < 0.45:
                time = cursor + rng.choice(self.DELTAS)
                priority = rng.choice(self.PRIORITIES)
                tag = len(handles)
                pair = tuple(
                    q.push(time, lambda: None, (tag,), priority=priority)
                    for q in (wheel, heap)
                )
                handles.append(pair)
            elif op < 0.60:
                time = cursor + rng.choice(self.DELTAS)
                for q in (wheel, heap):
                    q.post(time, lambda: None, ("post",))
            elif op < 0.75 and handles:
                for event in rng.choice(handles):
                    event.cancel()
            elif op < 0.90:
                until = (
                    None if rng.random() < 0.3
                    else cursor + rng.choice(self.DELTAS)
                )
                for stream, q in zip(streams, (wheel, heap)):
                    event = q.pop_next(until=until)
                    if event is None:
                        stream.append(None)
                    else:
                        stream.append(
                            (event.time, event.priority, event.sequence,
                             event.args[0])
                        )
                        cursor = max(cursor, event.time)
            else:
                for stream, q in zip(streams, (wheel, heap)):
                    stream.append(("peek", q.peek_time(), len(q)))
            assert len(wheel) == len(heap)
        for stream, q in zip(streams, (wheel, heap)):
            while True:
                event = q.pop_next()
                if event is None:
                    break
                stream.append(
                    (event.time, event.priority, event.sequence,
                     event.args[0])
                )
        assert streams[0] == streams[1]


class TestClearBookkeeping:
    """``clear()`` must leave the queue indistinguishable from a fresh
    one (modulo the monotone sequence counter)."""

    def test_clear_resets_live_and_dead_counters(self, core):
        queue = core()
        events = [
            queue.push(0.1 + (i % 7) * FRONT_SECONDS, lambda: None, (i,))
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

    def test_clear_cancel_detaches_retained_handles(self, core):
        queue = core()
        handles = [
            queue.push(0.5 + i * FRONT_SECONDS, lambda: None, (i,))
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

    def test_clear_resets_window_for_reuse(self, core):
        # Park the window deep into the schedule, then clear: an early
        # push on the reused queue must be reachable again (a stale
        # window base would bucket it as "in the past").
        queue = core()
        queue.push(1.0e6, lambda: None, ("far",))
        assert queue.pop_next(until=1.0e6 - 1.0) is None  # advances window
        queue.clear()
        queue.push(0.25, lambda: None, ("early",))
        assert queue.peek_time() == 0.25
        event = queue.pop_next()
        assert event is not None and event.args == ("early",)

    def test_clear_empties_every_wheel_structure(self):
        queue = EventQueue()
        for time in REGION_TIMES + (float("inf"),):
            queue.push(time, lambda: None, (time,))
        queue.clear()
        assert queue._front == []
        assert queue._overflow == []
        assert queue._maps == [0] * _LEVELS
        assert queue._window_base == 0

    def test_reuse_after_clear_preserves_ordering(self, core):
        queue = core()
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
        assert queue.pop_next() is live  # drains held's slot on the way
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
                engine.call_later(1e-4 * i + (i % 4) * 2 * FRONT_SECONDS,
                                  lambda: None)
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
