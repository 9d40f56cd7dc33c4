"""The bursty traffic clock.

The paper motivates measuring the SAVE interval "in terms of the number of
messages, rather than in terms of time, because the rate of message
generation may change over time.  At some time, the rate of message
generation can be very low."  :class:`BurstyTraffic` provides exactly that
variability so experiments can confirm the message-count policy behaves
well where a time-based policy would not (E6's wasteful-SAVE comparison).

The generator owns the *pacing* only; the actual transmission is the
sender's :meth:`~repro.core.sender.BaseSender.send_one`, so an attempt
while the host is down or recovering is counted as suppressed, as under
the sender's own clock.  Unlike that clock, which fires nothing through
an outage and counts the attempts it skipped at resume, this generator
makes every attempt as an event: its gaps vary, so it has no fixed grid
to resume on.
"""

from __future__ import annotations

from repro.core.sender import BaseSender
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.util.validation import check_positive, check_positive_int


class BurstyTraffic(SimProcess):
    """On/off bursts: ``burst_len`` sends at ``burst_interval`` pacing,
    then an idle period of ``idle_time`` — the regime where time-based
    SAVE policies waste writes (paper, Section 4)."""

    def __init__(
        self,
        engine: Engine,
        sender: BaseSender,
        burst_len: int,
        burst_interval: float,
        idle_time: float,
        name: str = "bursty",
    ) -> None:
        super().__init__(engine, name)
        self.burst_len = check_positive_int("burst_len", burst_len)
        self.burst_interval = check_positive("burst_interval", burst_interval)
        self.idle_time = check_positive("idle_time", idle_time)
        self.sender = sender
        self.attempts = 0
        self._running = False
        self._remaining: int | None = None
        # next_gap is called once before the first send; start at -1 so
        # the idle gap lands after exactly burst_len sends.
        self._in_burst = -1

    def start(self, count: int | None = None) -> None:
        """Begin generating; optionally stop after ``count`` attempts."""
        self._running = True
        self._remaining = count
        self.call_later(self.next_gap(), self._tick)

    def stop(self) -> None:
        """Stop generating (pending tick becomes a no-op)."""
        self._running = False

    def next_gap(self) -> float:
        """Time until the next send attempt."""
        self._in_burst += 1
        if self._in_burst >= self.burst_len:
            self._in_burst = 0
            return self.idle_time
        return self.burst_interval

    def _tick(self) -> None:
        if not self._running:
            return
        if self._remaining is not None:
            if self._remaining <= 0:
                self._running = False
                return
            self._remaining -= 1
        self.attempts += 1
        self.sender.send_one()
        self.call_later(self.next_gap(), self._tick)
