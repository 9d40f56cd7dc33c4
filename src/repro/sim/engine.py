"""The discrete-event simulation engine.

:class:`Engine` owns a virtual clock (``float`` seconds, starting at 0) and
an :class:`~repro.sim.events.EventQueue`.  :meth:`Engine.run` repeatedly
pops the earliest event, advances the clock to its timestamp, and fires it.
Because ties are broken deterministically (priority, then insertion order)
a simulation driven only by the engine plus seeded RNGs is exactly
reproducible.

The engine is intentionally synchronous and single-threaded: protocol
processes are plain objects whose methods are invoked by events.  This is
the style the rest of the library builds on (links deliver messages by
scheduling ``receiver.on_receive`` events, resets are events, SAVE
completions are events, ...).

Two scheduling flavours exist: :meth:`Engine.call_at` / ``call_later``
return a cancellable :class:`~repro.sim.events.Event` handle, while
:meth:`Engine.post_at` / ``post_later`` are fire-and-forget — no handle,
no per-event allocation — for schedules that are never cancelled (link
deliveries, one-shot bookkeeping).  Both share one sequence counter, so
mixing them cannot change ordering.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, ClassVar

from repro.sim.events import PRIORITY_NORMAL, Event, EventQueue
from repro.sim.trace import TraceRecorder

#: Sentinel budget meaning "unlimited" — larger than any real event count,
#: so the run loop can use one plain integer compare for all limit modes.
_NO_LIMIT = 1 << 62

#: Every scheduled time and delay is below this.
_INF = float("inf")


class EngineEventLimitError(RuntimeError):
    """Raised when a run blows through its hard event budget.

    A simulation whose event count keeps growing without the clock closing
    in on its horizon is almost always a self-rescheduling bug (an event
    that re-posts itself with zero or epsilon delay).  For unattended
    batch runs — the fleet runner in particular — that failure mode must
    surface as an error on the one offending task, not as a worker that
    spins forever.
    """


class Engine:
    """A deterministic discrete-event simulation engine.

    Attributes:
        now: current simulated time in seconds.
        trace: a :class:`TraceRecorder` shared by all components of the
            simulation (components may ignore it; experiments use it).
        hard_event_limit: lifetime event budget; once
            :attr:`events_processed` exceeds it, :meth:`run` raises
            :class:`EngineEventLimitError` instead of continuing.  ``None``
            (the default) disables the guard.  Unlike :meth:`run`'s
            ``max_events`` argument — a polite "pause after N" that
            returns normally — this is a tripwire for runaway schedules.
    """

    #: Default ``hard_event_limit`` applied to newly constructed engines.
    #: Batch drivers (the fleet runner) set this around task execution so
    #: the guard reaches engines built deep inside scenario helpers.
    default_hard_event_limit: ClassVar[int | None] = None

    def __init__(
        self,
        trace: TraceRecorder | None = None,
        hard_event_limit: int | None = None,
    ) -> None:
        self.now: float = 0.0
        self.trace: TraceRecorder = trace if trace is not None else TraceRecorder()
        self.hard_event_limit: int | None = (
            hard_event_limit
            if hard_event_limit is not None
            else type(self).default_hard_event_limit
        )
        self._queue = EventQueue()
        self._events_processed = 0
        self._running = False
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling in the past is an error: it would silently reorder
        causality.  A NaN ``time`` is refused too (the comparison is
        written so that NaN fails it): NaN keys compare false both ways
        and would corrupt the heap's order.  So is an infinite one: it
        would leave the clock at ``inf`` for good.
        """
        if not self.now <= time < _INF:
            raise ValueError(f"cannot schedule at t={time}: not finite, or "
                             f"before current time t={self.now}")
        return self._queue.push(time, callback, args, priority)

    def call_later(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` after a finite, non-negative ``delay``."""
        # One comparison chain is the whole validity check (NaN fails it
        # too), and a non-negative delay makes call_at's past-check
        # redundant.
        if not 0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        return self._queue.push(self.now + delay, callback, args, priority)

    def post_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget :meth:`call_at`: no handle, no allocation.

        Use for schedules that are never cancelled — there is nothing to
        cancel with.  Ordering is identical to :meth:`call_at` at the same
        instant (one shared sequence counter).
        """
        if not self.now <= time < _INF:
            raise ValueError(f"cannot schedule at t={time}: not finite, or "
                             f"before current time t={self.now}")
        self._queue.post(time, callback, args, priority)

    def post_later(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget :meth:`call_later` (see :meth:`post_at`)."""
        if not 0 <= delay < _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        self._queue.post(self.now + delay, callback, args, priority)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single earliest event.

        Returns:
            ``True`` if an event fired, ``False`` if the queue was empty.
        """
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        assert event.time >= self.now, "event queue returned a past event"
        self.now = event.time
        self._events_processed += 1
        event.fire()
        return True

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Run events until the queue drains (or a limit is hit).

        Args:
            until: if given, stop once the next event would be strictly
                after ``until``; the clock is then advanced to ``until``.
            max_events: if given, stop after firing this many events.

        Returns:
            The number of events fired by this call.

        ``max_events`` and :attr:`hard_event_limit` are sampled once at
        entry; mutating the limit from inside a callback does not affect
        the run already in progress.
        """
        if self._running:
            raise RuntimeError("Engine.run() is not reentrant")
        self._running = True
        self._stop_requested = False
        # The inlined hot loop over the queue's heap — the hottest code
        # in the library.  It pops entry tuples and fires them directly
        # (the Event, when there is one, is only touched to check
        # cancellation and to detach it) until the heap is empty, and all
        # limit modes collapse to plain compares against sentinel
        # budgets, so the common unlimited case pays nothing extra.  The
        # queue invariants kept here (live counter decrement, dead-entry
        # drop) mirror ``EventQueue.pop_next``; the loop holds the heap
        # list itself, which the queue only ever mutates in place.
        queue = self._queue
        cap = _NO_LIMIT if max_events is None else max_events
        hard_limit = self.hard_event_limit
        budget = _NO_LIMIT if hard_limit is None else hard_limit
        horizon = _INF if until is None else until
        heap = queue._heap
        pop = heappop
        processed = self._events_processed
        fired = 0
        try:
            while heap and fired < cap and not self._stop_requested:
                # One specialised unpack instead of four tuple subscripts.
                time, prio, seq, event, callback, args = pop(heap)
                if event is not None and event.cancelled:
                    queue._dead -= 1
                    continue
                if time > horizon:
                    # Not due yet: this entry stays scheduled.  The rebuilt
                    # tuple is key-identical, so ordering is unaffected.
                    heappush(heap, (time, prio, seq, event, callback, args))
                    break
                queue._live -= 1
                self.now = time
                processed += 1
                self._events_processed = processed
                if event is not None:
                    # Detach before firing (mirrors pop_next) so a callback
                    # cancelling its own event only sets a harmless flag
                    # instead of corrupting the live/dead counters.
                    event._queue = None
                callback(*args)
                fired += 1
                if processed > budget:
                    raise EngineEventLimitError(
                        f"engine exceeded hard_event_limit={hard_limit} "
                        f"(events_processed={processed}, "
                        f"t={self.now:.9f}, pending={self.pending_events}): "
                        "likely a self-rescheduling event loop; raise the "
                        "limit or fix the schedule"
                    )
        finally:
            self._running = False
        if until is not None and until > self.now and not self._stop_requested:
            # Advance the clock to the requested horizon even if idle.
            self.now = until
        return fired

    def stop(self) -> None:
        """Request that a :meth:`run` in progress return after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

    @property
    def scheduled(self) -> int:
        """Events scheduled so far: the sequence number the next one takes,
        which orders it after every one already queued at its instant."""
        return self._queue._seq

    @property
    def running(self) -> bool:
        """Whether a :meth:`run` is in progress (a callback is firing)."""
        return self._running

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Engine now={self.now:.9f} pending={self.pending_events} "
            f"processed={self._events_processed}>"
        )
