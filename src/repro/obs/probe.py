"""Per-SA health probes: the controller's input signals.

A :class:`HealthProbe` watches one SA's components — sender, receiver,
link, and their persistent stores — and publishes exactly the signals
the ROADMAP's ``repro.control`` adaptive controller consumes:

* ``loss_ewma`` — smoothed per-interval link loss fraction.
* ``replay_discards`` — window rejections (duplicate + stale verdicts).
* ``save_queue_depth`` / ``save_wait`` — in-flight SAVEs and the time
  until the newest one commits (on a gateway's shared store this is the
  device queueing the sizing rule provisions for).
* ``recovery_latency`` — reset-to-resume duration per completed reset,
  as a :class:`~repro.obs.hub.QuantileSketch` histogram plus a time
  series.  ``resets`` also counts a reset whose recovery a later reset
  interrupted, which has no latency.
* ``path_transitions`` / ``blackholed`` — netpath regime activity.

Probes are **pull-based**: they touch nothing on the per-packet hot
path.  All signals derive from counters and records the components
already maintain; the :class:`~repro.obs.sampler.Sampler` calls
:meth:`HealthProbe.sample` on its periodic tick and the probe computes
deltas since its previous sample.  That is what keeps the enabled-hub
tax proportional to the *sampling* rate, not the message rate — and the
disabled path attaches no probe at all (see the zero-overhead-off
invariant in :mod:`repro.obs.hub`).

:class:`SharedStoreProbe` is the gateway-level sibling: one per shared
device, publishing the store's backlog and operation counters under the
root hub.
"""

from __future__ import annotations

from typing import Any

from repro.ipsec.replay_window import Verdict
from repro.obs.hub import MetricsHub

#: EWMA smoothing for the loss signal (see hub.DEFAULT_EWMA_ALPHA note).
LOSS_EWMA_ALPHA = 0.25

#: The window verdicts ``replay_discards`` counts.
_DUPLICATE, _STALE = Verdict.DUPLICATE, Verdict.STALE


class HealthProbe:
    """Pull-based health signals for one SA (see module docstring).

    Args:
        hub: the (sub-)hub to publish under — per-SA probes receive the
            gateway's ``hub.sub("saN")`` view, single-pair runs the root.
        sender / receiver / link: the SA's components; any may be
            ``None`` (a receiver-side-only probe, say) and its signals
            are simply not published.
    """

    def __init__(
        self,
        hub: MetricsHub,
        sender: Any = None,
        receiver: Any = None,
        link: Any = None,
    ) -> None:
        self.hub = hub
        self.sender = sender
        self.receiver = receiver
        self.link = link
        # Instruments (registered eagerly so an idle SA still exports
        # its signal names — consumers discover the schema from any run).
        self.loss_ewma = hub.ewma("loss_ewma", alpha=LOSS_EWMA_ALPHA)
        self.loss_series = hub.series("loss_ewma")
        self.replay_discards = hub.counter("replay_discards")
        self.discard_series = hub.series("replay_discards")
        self.queue_depth = hub.gauge("save_queue_depth")
        self.queue_series = hub.series("save_queue_depth")
        self.save_wait = hub.gauge("save_wait")
        self.wait_series = hub.series("save_wait")
        self.recovery_latency = hub.histogram("recovery_latency")
        self.recovery_series = hub.series("recovery_latency")
        self.resets = hub.counter("resets")
        self.path_transitions = hub.gauge("path_transitions")
        self.blackholed = hub.counter("blackholed")
        # Delta state from the previous sample.
        self._seen_offered = 0
        self._seen_dropped = 0
        self._seen_discards = 0
        self._seen_blackholed = 0
        self._reset_cursors: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, now: float) -> None:
        """Take one snapshot; called by the sampler on its tick."""
        if self.link is not None:
            self._sample_loss(now)
        if self.receiver is not None:
            self._sample_discards(now)
        self._sample_save_queue(now)
        self._sample_recoveries(now)

    def _sample_loss(self, now: float) -> None:
        link = self.link
        offered, dropped = link.offered, link.dropped
        delta_offered = offered - self._seen_offered
        delta_dropped = dropped - self._seen_dropped
        self._seen_offered, self._seen_dropped = offered, dropped
        if delta_offered > 0:
            self.loss_ewma.observe(delta_dropped / delta_offered)
        self.loss_series.sample(now, self.loss_ewma.value)
        transitions = getattr(link, "path_transitions", 0)
        self.path_transitions.set(transitions)
        blackholed = getattr(link, "blackholed", 0)
        if blackholed > self._seen_blackholed:
            self.blackholed.inc(blackholed - self._seen_blackholed)
            self._seen_blackholed = blackholed

    def _sample_discards(self, now: float) -> None:
        counts = self.receiver.verdict_counts
        discarded = counts[_DUPLICATE] + counts[_STALE]
        if discarded > self._seen_discards:
            self.replay_discards.inc(discarded - self._seen_discards)
            self._seen_discards = discarded
        self.discard_series.sample(now, self.replay_discards.value)

    def _sample_save_queue(self, now: float) -> None:
        depth = 0
        wait = 0.0
        for endpoint in (self.sender, self.receiver):
            store = getattr(endpoint, "store", None)
            if store is None:
                continue
            depth += store.in_flight_count
            wait = max(wait, store.queue_wait())
        self.queue_depth.set(depth)
        self.queue_series.sample(now, depth)
        self.save_wait.set(wait)
        self.wait_series.sample(now, wait)

    def _sample_recoveries(self, now: float) -> None:
        for endpoint in (self.sender, self.receiver):
            if endpoint is None:
                continue
            records = endpoint.reset_records
            cursor = self._reset_cursors.get(id(endpoint), 0)
            while cursor < len(records):
                record = records[cursor]
                if record.resume_time is not None:
                    latency = record.resume_time - record.reset_time
                    self.recovery_latency.observe(latency)
                    self.recovery_series.sample(record.resume_time, latency)
                elif cursor + 1 == len(records):
                    break  # still recovering; revisit next sample
                # A record a later reset superseded never resumes: it is
                # a finished reset with no recovery latency.
                self.resets.inc()
                cursor += 1
            self._reset_cursors[id(endpoint)] = cursor


class EventCoreProbe:
    """Engine event-core counters, sampled per tick.

    Publishes the engine's processed/pending totals under ``engine/``,
    plus the processed total as a series.  Pull-based like every probe:
    the hot path pays nothing, and with the hub disabled no probe
    attaches at all.
    """

    def __init__(self, hub: MetricsHub, engine: Any) -> None:
        self.hub = hub
        self.engine = engine
        self.events_processed = hub.gauge("engine/events_processed")
        self.pending = hub.gauge("engine/pending_events")
        self.processed_series = hub.series("engine/events_processed")

    def sample(self, now: float) -> None:
        self.events_processed.set(self.engine.events_processed)
        self.pending.set(self.engine.pending_events)
        self.processed_series.sample(now, self.engine.events_processed)


class SharedStoreProbe:
    """Device-level signals of a gateway's shared persistent store.

    Published under the root hub (the device is shared — it has no SA
    label): backlog (time until the device is free), cumulative
    saves/fetches/device-writes, and the worst waits observed so far.
    """

    def __init__(self, hub: MetricsHub, store: Any) -> None:
        self.hub = hub
        self.store = store
        self.backlog = hub.gauge("store/backlog")
        self.backlog_series = hub.series("store/backlog")
        self.saves_series = hub.series("store/saves")
        self.fetches_series = hub.series("store/fetches")
        self.max_save_wait = hub.gauge("store/max_save_wait")
        self.max_fetch_wait = hub.gauge("store/max_fetch_wait")

    def sample(self, now: float) -> None:
        store = self.store
        backlog = store.backlog
        self.backlog.set(backlog)
        self.backlog_series.sample(now, backlog)
        self.saves_series.sample(now, store.saves)
        self.fetches_series.sample(now, store.fetches)
        self.max_save_wait.set(store.max_save_wait)
        self.max_fetch_wait.set(store.max_fetch_wait)
