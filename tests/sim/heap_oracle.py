"""A single binary-heap event queue: the timer wheel's parity oracle.

The library runs one event core, the hierarchical timer wheel in
:mod:`repro.sim.events`.  This plain heap implements the same contract
— ``push`` / ``post`` / ``pop`` / ``pop_next(until)`` / ``peek_time`` /
``cancel`` / ``clear``, O(1) ``len``, ``(time, priority, sequence)`` pop
order — in the most obvious way (O(log n) over the whole horizon, lazy
cancellation with threshold compaction), so the ordering tests can drive
both through identical schedules and require identical streams.  Entries
share the wheel's ``(time, priority, sequence, event, callback, args)``
layout and one sequence counter covers ``push`` and ``post``, so both
queues number events identically.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.sim.events import PRIORITY_NORMAL, Event


class HeapEventQueue:
    """The binary-heap core: lazy cancellation + compaction."""

    #: Heaps smaller than this are never compacted (the skip cost is noise).
    COMPACT_MIN = 64
    #: The effective dead-fraction threshold of the ``dead > live``
    #: trigger in :meth:`Event.cancel`.
    COMPACT_FRACTION = 0.5

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return the event."""
        sequence = self._seq
        self._seq = sequence + 1
        event = Event(time, priority, sequence, callback, args)
        event._queue = self
        heappush(self._heap, (time, priority, sequence, event, callback, args))
        self._live += 1
        return event

    def post(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget schedule (same sequence numbering as the wheel)."""
        sequence = self._seq
        self._seq = sequence + 1
        heappush(self._heap, (time, priority, sequence, None, callback, args))
        self._live += 1

    def _compact(self) -> None:
        """Rebuild the heap from live entries only.

        Ordering keys are immutable, so heapify restores exactly the same
        ``(time, priority, sequence)`` pop order minus the dead entries.
        The list is mutated in place — never rebound — because tests may
        hold a direct reference to it.  (:meth:`Event.cancel` owns the
        counter updates and the compaction trigger.)
        """
        self._heap[:] = [
            entry for entry in self._heap
            if entry[3] is None or not entry[3].cancelled
        ]
        self._dead = 0
        heapify(self._heap)

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        event = self.pop_next()
        if event is None:
            raise IndexError("pop from empty HeapEventQueue")
        return event

    def pop_next(self, until: float | None = None) -> Event | None:
        """Single-pass pop: the earliest live event, or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event is not None and event.cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(heap)
            self._live -= 1
            if event is None:
                event = Event(entry[0], entry[1], entry[2], entry[4], entry[5])
            event._queue = None
            return event
        return None

    def peek_time(self) -> float | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event is not None and event.cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            return entry[0]
        return None

    def clear(self) -> None:
        """Drop all pending events, cancel-detaching every handle."""
        for entry in self._heap:
            event = entry[3]
            if event is not None:
                event.cancelled = True
                event._queue = None
        self._heap.clear()
        self._live = 0
        self._dead = 0
