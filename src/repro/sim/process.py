"""Base classes for simulated entities.

:class:`SimProcess` gives components a name, a handle on the engine and
trace helpers.  :class:`Timer` is a restartable, cancellable recurring
timer built on engine events — used by traffic generators, DPD probes and
keep-alive logic.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.util.validation import check_positive


class SimProcess:
    """A named participant in a simulation.

    Subclasses are ordinary Python objects whose methods get invoked by
    scheduled events; this base class only centralises the engine handle,
    naming, and trace recording.
    """

    def __init__(self, engine: Engine, name: str) -> None:
        self.engine = engine
        self.name = name

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    def trace(self, kind: str, **detail: Any) -> None:
        """Record a trace event attributed to this process."""
        recorder = self.engine.trace
        if recorder.enabled:
            recorder.record(self.engine.now, self.name, kind, **detail)

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        return self.engine.call_later(delay, callback, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class Timer:
    """A recurring timer.

    Calls ``callback()`` every ``interval`` simulated seconds after
    :meth:`start`, until :meth:`stop` (or the callback raises).  The timer
    may be restarted after being stopped; :meth:`reset` restarts the
    current period (useful for inactivity timers such as dead-peer
    detection).

    A tick re-arms by re-queuing the :class:`~repro.sim.events.Event`
    that just fired (:meth:`~repro.sim.events.EventQueue.requeue`), so a
    running timer allocates nothing per tick and its pending tick stays
    cancellable.  :meth:`pause` and :meth:`start_at` let an owner stop
    the clock and later resume it on the same grid of instants.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        callback: Callable[[], None],
    ) -> None:
        check_positive("interval", interval)
        self.engine = engine
        self.interval = interval
        self.callback = callback
        self._queue = engine._queue
        self._event: Event | None = None
        self._stopped = True

    @property
    def running(self) -> bool:
        """Whether the timer is armed."""
        return not self._stopped

    def start(self, first_delay: float | None = None) -> None:
        """Arm the timer; first tick after ``first_delay`` (default: interval)."""
        self.stop()
        self._stopped = False
        delay = self.interval if first_delay is None else first_delay
        self._event = self.engine.call_later(delay, self._tick)

    def start_at(self, time: float) -> None:
        """Arm the timer with its first tick at the absolute instant ``time``."""
        self.stop()
        self._stopped = False
        self._event = self.engine.call_at(time, self._tick)

    def pause(self) -> tuple[float, int | None]:
        """Stop, and return when the next tick was due and the sequence
        number its event had, or ``None`` inside the timer's own callback,
        where the re-arm (at ``now + interval``) was not queued yet."""
        event = self._event
        self.stop()
        if event is None:
            return self.engine.now + self.interval, None
        return event.time, event.sequence

    def stop(self) -> None:
        """Disarm the timer (safe to call when not running, or from inside
        the timer's own callback)."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def reset(self) -> None:
        """Restart the current period (next tick is a full interval away)."""
        # Inlined start(): reset is the inactivity-timer hot path (every
        # data packet defers its DPD deadline), so skip the two extra
        # method frames and cancel/re-arm directly.
        if self._stopped:
            return
        event = self._event
        if event is not None and not event.cancelled:
            # Event.cancel, inlined (the cancel/re-arm pair below is the
            # inactivity-timer hot path; see Event.cancel for the shape).
            event.cancelled = True
            queue = event._queue
            if queue is not None:
                queue._live -= 1
                dead = queue._dead = queue._dead + 1
                if dead > queue._live and dead >= queue.COMPACT_MIN:
                    queue._compact()
        self._event = self.engine.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        # The event firing now is the armed one; it has left the heap.
        event = self._event
        self._event = None
        self.callback()
        # The callback may have stopped or restarted the timer; only
        # re-arm if it did neither.
        if not self._stopped and self._event is None:
            self._event = self._queue.requeue(
                event, self.engine.now + self.interval
            )
