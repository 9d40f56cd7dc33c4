"""Tests for repro.sim.events."""

import random

import pytest

from repro.sim.engine import Engine
from repro.sim.events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    EventQueue,
)


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, order.append, (2,))
        queue.push(1.0, order.append, (1,))
        queue.push(3.0, order.append, (3,))
        while queue:
            queue.pop().fire()
        assert order == [1, 2, 3]

    def test_fifo_among_simultaneous(self):
        queue = EventQueue()
        order = []
        for tag in "abc":
            queue.push(1.0, order.append, (tag,))
        while queue:
            queue.pop().fire()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, order.append, ("normal",))
        queue.push(1.0, order.append, ("late",), priority=PRIORITY_LATE)
        queue.push(1.0, order.append, ("early",), priority=PRIORITY_EARLY)
        while queue:
            queue.pop().fire()
        assert order == ["early", "normal", "late"]


class TestCancellation:
    def test_cancelled_event_not_popped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, fired.append, (1,))
        queue.push(2.0, fired.append, (2,))
        event.cancel()
        while queue:
            queue.pop().fire()
        assert fired == [2]

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        event.cancel()
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        queue = EventQueue()
        with pytest.raises(IndexError):
            queue.pop()

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_peek_time_empty_is_none(self):
        assert EventQueue().peek_time() is None

    def test_clear(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert not queue

    def test_cancel_after_clear_is_harmless(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.clear()
        event.cancel()
        queue.push(2.0, lambda: None)
        assert len(queue) == 1


class TestLiveCounterAccounting:
    """len()/bool() are backed by a live counter, not a heap scan — these
    pin the accounting through every cancel/pop interleaving."""

    def test_cancel_then_pop_accounting(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.push(3.0, lambda: None)
        assert len(queue) == 3
        first.cancel()
        assert len(queue) == 2
        assert queue.pop().time == 2.0
        assert len(queue) == 1
        assert queue.pop().time == 3.0
        assert len(queue) == 0
        assert not queue
        with pytest.raises(IndexError):
            queue.pop()

    def test_double_cancel_decrements_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_is_a_no_op(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is event
        event.cancel()  # already fired/removed: must not corrupt the counter
        assert len(queue) == 1
        assert queue.pop().time == 2.0
        assert len(queue) == 0

    def test_pop_next_until_leaves_event_queued(self):
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        assert queue.pop_next(until=1.0) is None
        assert len(queue) == 1
        event = queue.pop_next(until=5.0)
        assert event is not None and event.time == 5.0
        assert len(queue) == 0

    def test_pop_next_skips_cancelled_prefix(self):
        queue = EventQueue()
        dead = [queue.push(float(i), lambda: None) for i in range(3)]
        queue.push(10.0, lambda: None)
        for event in dead:
            event.cancel()
        survivor = queue.pop_next()
        assert survivor is not None and survivor.time == 10.0
        assert queue.pop_next() is None


class TestHeapCompaction:
    """Lazy cancellation's memory bound: once dead entries outnumber live
    ones, and there are at least ``COMPACT_MIN`` of them, the heap is
    rebuilt from its live entries — in place, because a running engine
    holds the list."""

    MIN = EventQueue.COMPACT_MIN

    def test_compaction_drops_dead_entries(self):
        queue = EventQueue()
        count = 3 * self.MIN
        events = [queue.push(float(i), lambda: None) for i in range(count)]
        for event in events[: count * 3 // 4]:
            event.cancel()
        # The cancel that made dead outnumber live rebuilt the heap from
        # the live half; the later cancels left dead <= live.
        live = count - count * 3 // 4
        assert len(queue) == live
        assert len(queue._heap) == count - (count // 2 + 1)
        assert queue._dead == len(queue._heap) - live <= live

    def test_small_heaps_are_not_compacted(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(self.MIN)]
        for event in events[:-1]:
            event.cancel()
        # Dead outnumber live, but fewer than COMPACT_MIN: lazy removal only.
        assert len(queue._heap) == self.MIN
        assert len(queue) == 1
        events[-1].cancel()  # the COMPACT_MIN-th dead entry
        assert queue._heap == [] and queue._dead == 0

    def test_compaction_preserves_pop_order(self):
        queue = EventQueue()
        events = [
            queue.push(float(i % 7), lambda: None) for i in range(3 * self.MIN)
        ]
        survivors = [e for i, e in enumerate(events) if i % 4 == 0]
        for i, event in enumerate(events):
            if i % 4:
                event.cancel()
        assert len(queue._heap) < len(events)
        popped = []
        while queue:
            popped.append(queue.pop())
        expected = sorted(
            survivors, key=lambda e: (e.time, e.priority, e.sequence)
        )
        assert popped == expected

    def test_compaction_inside_a_run_keeps_the_engines_heap(self):
        # A callback's cancel storm compacts the heap the run loop is
        # popping; events scheduled after it must still fire in order.
        engine = Engine()
        fired = []
        events = [
            engine.call_at(1.0 + i, fired.append, i)
            for i in range(3 * self.MIN)
        ]

        def storm():
            for event in events[1::4] + events[2::4] + events[3::4]:
                event.cancel()
            engine.post_at(1.5, fired.append, "posted")

        engine.call_at(0.5, storm)
        engine.run()
        expected = list(range(0, 3 * self.MIN, 4))
        assert fired == [0, "posted"] + expected[1:]
        assert engine.pending_events == 0 and engine._queue._dead == 0


class TestRandomizedOrderingContract:
    """Fuzz the documented ordering contract: events fire in
    ``(time, priority, sequence)`` order — FIFO among equal-priority
    simultaneous events — with cancelled events silently absent."""

    PRIORITIES = (PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_LATE)

    @pytest.mark.parametrize("seed", range(8))
    def test_firing_order_matches_contract(self, seed):
        rng = random.Random(seed)
        queue = EventQueue()
        fired: list[int] = []
        scheduled = []
        for tag in range(300):
            event = queue.push(
                time=float(rng.randrange(5)),  # heavy same-time collisions
                callback=fired.append,
                args=(tag,),
                priority=rng.choice(self.PRIORITIES),
            )
            scheduled.append((event, tag))
            # Cancel a random earlier survivor now and then, so dead
            # entries interleave with live ones throughout the heap.
            if rng.random() < 0.3:
                victim, _ = rng.choice(scheduled)
                victim.cancel()
        while queue:
            queue.pop().fire()
        expected = [
            tag
            for event, tag in sorted(
                scheduled,
                key=lambda pair: (
                    pair[0].time, pair[0].priority, pair[0].sequence
                ),
            )
            if not event.cancelled
        ]
        assert fired == expected
