"""Scheduled events and the event queue (one binary heap).

Events are ordered by ``(time, priority, sequence)``.  ``priority`` breaks
ties between events scheduled for the same instant (lower runs first), and
``sequence`` (a monotonically increasing insertion counter) guarantees FIFO
order among equal-priority simultaneous events — the property that makes
simulation runs reproducible.

:class:`EventQueue` is one ``heapq`` binary heap of
``(time, priority, sequence, event, callback, args)`` tuples: comparison
is a single C call that short-circuits on ``time`` and never reaches the
``event`` slot because ``sequence`` is unique.  :meth:`EventQueue.post`
schedules a fire-and-forget callback with *no* :class:`Event` — the entry
tuple is the event — for hot paths that never cancel (link deliveries,
one-shot bookkeeping).  A cancellable :class:`Event` from
:meth:`EventQueue.push` keeps its own copy of the scheduling fields and
never references its entry: the entry holds the event, so a
back-reference would make every handle a cycle that only the cyclic
garbage collector can free.

Cancellation is lazy: a cancelled entry stays in the heap until it
reaches the top, where the pop paths drop it (see :class:`EventQueue`
for the compaction that bounds the dead weight).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping that must run before normal events at the same time.
PRIORITY_EARLY = -10
#: Priority for bookkeeping that must run after normal events at the same time.
PRIORITY_LATE = 10


class Event:
    """A cancellable callback scheduled at a simulated time.

    Instances are created by :class:`EventQueue.push` /
    :meth:`repro.sim.engine.Engine.call_at`; user code normally only keeps
    them around to call :meth:`cancel`.  The scheduling fields stay
    truthful after the event fires, is drained as cancelled, or is
    dropped by :meth:`EventQueue.clear`.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args",
                 "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The queue, for cancel()'s counters; ``None`` once fired/cleared.
        self._queue: EventQueue | None = None

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if already fired)."""
        # Inlined counter bookkeeping: cancellation is on the timer-churn
        # hot path (every re-armed inactivity timer cancels its predecessor).
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is None:
            return
        queue._live -= 1
        dead = queue._dead = queue._dead + 1
        if dead > queue._live and dead >= queue.COMPACT_MIN:
            queue._compact()

    def fire(self) -> None:
        """Invoke the callback (the engine calls this; not user code)."""
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} prio={self.priority} {name}{state}>"


#: Entry layout (posted entries carry ``None`` in the event slot; they
#: still sort with pushed ones because comparison never reaches index 3).
Entry = tuple  # (time, priority, sequence, Event | None, callback, args)

#: Allocating an Event *shell* and filling its slots inline is markedly
#: cheaper than an ``Event.__init__`` call frame; :meth:`EventQueue.push`,
#: the one hot construction site, uses it.
_new_event = Event.__new__


class EventQueue:
    """Binary-heap priority queue of scheduled callbacks.

    ``len()`` / ``bool()`` are O(1): ``_live`` is incremented by
    :meth:`push`/:meth:`post` and decremented by :meth:`Event.cancel` and
    the pop paths; ``_dead`` counts the cancelled entries still in
    ``_heap``.  :meth:`~repro.sim.engine.Engine.run` pops ``_heap``
    directly and holds the list for the whole run, so it is only ever
    mutated in place, never rebound.
    """

    #: Rebuild the heap from its live entries once dead ones outnumber
    #: them and there are at least this many (below it, skipping is cheap).
    COMPACT_MIN = 4096

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
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
        event = _new_event(Event)
        event.time = time
        event.priority = priority
        event.sequence = sequence
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._queue = self
        self._live += 1
        heappush(self._heap, (time, priority, sequence, event, callback, args))
        return event

    def post(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule a fire-and-forget callback with no :class:`Event`.

        The zero-alloc fast path for schedules that are never cancelled:
        the entry tuple is the whole event.  Posts and pushes share one
        sequence counter, so ordering is identical to :meth:`push`.
        """
        sequence = self._seq
        self._seq = sequence + 1
        self._live += 1
        heappush(self._heap, (time, priority, sequence, None, callback, args))

    def requeue(self, event: Event, time: float) -> Event:
        """Schedule a *fired* ``event`` again at ``time``: no allocation.

        A fired event has left the heap (``_queue is None``), so it can
        take a new entry.  It gets a fresh sequence number here, so it
        orders exactly as a new :meth:`push` made at this point would.
        An event cancelled while queued is refused: its dead entry may
        still sit in the heap, and reviving it would fire it twice.
        """
        if event._queue is not None:
            raise ValueError("only a fired event can be re-queued")
        sequence = self._seq
        self._seq = sequence + 1
        event.time = time
        event.sequence = sequence
        event.cancelled = False
        event._queue = self
        self._live += 1
        heappush(self._heap, (time, event.priority, sequence, event,
                              event.callback, event.args))
        return event

    def _compact(self) -> None:
        """Rebuild the heap from its live entries, in place (keys are
        immutable, so the pop order is unchanged; the callers own the
        counters and the trigger)."""
        heap = self._heap
        heap[:] = [e for e in heap if e[3] is None or not e[3].cancelled]
        heapify(heap)
        self._dead = 0

    def _prune(self) -> bool:
        """Drop cancelled entries off the top; ``False`` if none is live."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event is None or not event.cancelled:
                return True
            heappop(heap)
            self._dead -= 1
        return False

    def pop(self) -> Event:
        """Pop the earliest live event; ``IndexError`` if there is none."""
        event = self.pop_next()
        if event is None:
            raise IndexError("pop from empty EventQueue")
        return event

    def pop_next(self, until: float | None = None) -> Event | None:
        """Pop the earliest live event, or ``None``.

        When ``until`` is given and the earliest live event is strictly
        after it, the event is left queued and ``None`` is returned.  A
        posted entry is materialised into an :class:`Event` here; the
        engine's run loop fires entries directly and never pays for it.
        """
        if not self._prune():
            return None
        heap = self._heap
        if until is not None and heap[0][0] > until:
            return None
        time, priority, sequence, event, callback, args = heappop(heap)
        self._live -= 1
        if event is None:
            return Event(time, priority, sequence, callback, args)
        event._queue = None
        return event

    def peek_time(self) -> float | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        return self._heap[0][0] if self._prune() else None

    def clear(self) -> None:
        """Drop all pending events, *cancel-detaching* each: a handle
        retained across the clear reports that it will never fire, and a
        late ``cancel()`` stays a no-op instead of corrupting the counter.
        """
        for entry in self._heap:
            event = entry[3]
            if event is not None:
                event.cancelled = True
                event._queue = None
        self._heap.clear()
        self._live = 0
        self._dead = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventQueue live={self._live} dead={self._dead}>"
