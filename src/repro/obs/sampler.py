"""The sampling engine process: periodic gauge snapshots.

A :class:`Sampler` is the one piece of the observability layer that
lives *inside* the simulation: an engine-scheduled tick that asks every
registered probe to :meth:`sample` and records two engine-level series
(pending events, events processed).  Gauges become time series here —
nothing else in the system turns levels into timelines.

Lifecycle rules, chosen so a sampler can never wedge a run:

* Ticks are scheduled at :data:`~repro.sim.events.PRIORITY_LATE`, so a
  sample taken at time *t* observes the state *after* every protocol
  event at *t* has fired.
* A tick that finds the rest of the event queue empty takes its final
  sample and does **not** re-arm: an ``engine.run()`` with no horizon
  still terminates, and a ``run(until=...)`` leaves at most one armed
  tick behind.
* Sampling only reads component state.  The protocol outcome of a
  sampled run is identical to an unsampled one — only
  ``events_processed`` differs (the ticks themselves).
* A sender's traffic clock queues nothing while an outage pauses it
  (:meth:`~repro.core.sender.BaseSender.start_traffic`); a
  count-bounded stream keeps one entry at its stop instant instead.  So
  ``events_processed`` counts no suppressed attempt, and an outage with
  an unbounded stream and no pending wake leaves the queue empty, which
  ends the sampling there.
"""

from __future__ import annotations

from typing import Any

from repro.obs.hub import MetricsHub
from repro.sim.engine import Engine
from repro.sim.events import PRIORITY_LATE
from repro.sim.process import SimProcess
from repro.util.validation import check_positive

#: Default sampling period: 25 paper-rate messages (t_send = 4 us), so a
#: millisecond of simulated time yields 10 points per series.
DEFAULT_SAMPLE_INTERVAL = 1e-4


class Sampler(SimProcess):
    """Periodic snapshotting of probes into hub time series.

    Args:
        engine: the simulation engine (one sampler per engine).
        hub: the root hub receiving the engine-level series.
        interval: simulated seconds between ticks.
    """

    def __init__(
        self,
        engine: Engine,
        hub: MetricsHub,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
        name: str = "obs:sampler",
    ) -> None:
        super().__init__(engine, name)
        check_positive("interval", interval)
        self.hub = hub
        self.interval = interval
        self.samples_taken = 0
        self._probes: list[Any] = []
        self._event = None
        self._running = False
        self._pending_series = hub.series("engine/pending_events")
        self._processed_series = hub.series("engine/events_processed")

    # ------------------------------------------------------------------
    # Probe registry
    # ------------------------------------------------------------------
    def register(self, probe: Any) -> None:
        """Add a probe (anything with ``sample(now)``) to the tick."""
        self._probes.append(probe)

    @property
    def probes(self) -> tuple[Any, ...]:
        return tuple(self._probes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether a tick is armed."""
        return self._running

    def start(self, first_delay: float | None = None) -> None:
        """Arm the periodic tick (first sample after ``first_delay``,
        default one interval)."""
        self.stop()
        self._running = True
        delay = self.interval if first_delay is None else first_delay
        self._event = self.engine.call_later(
            delay, self._tick, priority=PRIORITY_LATE
        )

    def stop(self) -> None:
        """Disarm the tick (safe when not running)."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def sample_now(self) -> None:
        """Take one snapshot immediately (also usable while stopped —
        drivers call this after the horizon for a closing data point)."""
        now = self.engine.now
        self.samples_taken += 1
        for probe in self._probes:
            probe.sample(now)
        self._pending_series.sample(now, self.engine.pending_events)
        self._processed_series.sample(now, self.engine.events_processed)

    def _tick(self) -> None:
        self._event = None
        self.sample_now()
        if not self._running:
            return
        if self.engine.pending_events == 0:
            # This tick was the only thing left: the simulation is done.
            # Not re-arming is what lets an un-horizoned run() drain.
            self._running = False
            return
        self._event = self.engine.call_later(
            self.interval, self._tick, priority=PRIORITY_LATE
        )
