"""Process ``p`` — the sender (Sections 2 and 4 of the paper).

Two concrete senders share :class:`BaseSender`:

* :class:`UnprotectedSender` — the Section 2 process.  Its only state is
  the counter ``s`` (next to be sent, initially 1).  On a reset this state
  is lost and, per Section 3, "p resumes its operation with s set to 1" —
  the behaviour that produces unbounded fresh-message discards at the
  receiver.

* :class:`SaveFetchSender` — the Section 4 process.  In addition to ``s``
  it keeps ``lst`` (sequence number stored by the last *initiated* SAVE)
  and ``wait``.  After each send, "p checks whether s has become Kp
  greater than the last stored sequence number, lst.  If so, p executes
  SAVE(s)" *in the background*.  On wake-up after a reset it runs
  ``FETCH(s); SAVE(s + 2Kp); s := s + 2Kp; lst := s; wait := false`` —
  waiting for that synchronous SAVE to finish before sending again.

The `2Kp` leap is configurable (``leap_factor``) so experiment E11 can
ablate it and show that a `1Kp` leap (or skipping the post-wake SAVE)
breaks the guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.audit import DeliveryAuditor
from repro.core.encap import seal
from repro.core.endpoint import Endpoint, Recovery, SaveFetchWake
from repro.core.persistent import PersistentStore
from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.ipsec.sa import SecurityAssociation
from repro.net.link import PacketPipe
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.process import Timer
from repro.util.validation import check_positive

#: Listener signature for :meth:`BaseSender.add_send_listener`:
#: ``(sent_total, packet)`` after each fresh transmission.
SendListener = Callable[[int, Any], None]


@dataclass
class SenderResetRecord:
    """Everything about one sender reset/wake cycle (feeds Fig. 1 / E1 / E3).

    Attributes:
        reset_time: when the reset hit.
        last_used_seq: the last sequence number actually sent before the
            reset (``s - 1`` at crash time), or 0 if nothing was sent.
        save_in_flight: whether a background SAVE was in flight when the
            reset hit (Fig. 1 distinguishes the two cases).
        fetched: value FETCH returned on wake (None for the unprotected
            sender, which has nothing to fetch).
        resumed_seq: first sequence number used after recovery.
        wake_time: when the host came back up.
        resume_time: when sending actually resumed (after the post-wake
            synchronous SAVE for the protected sender).
    """

    reset_time: float
    last_used_seq: int
    save_in_flight: bool
    fetched: int | None
    resumed_seq: int | None = None
    wake_time: float | None = None
    resume_time: float | None = None

    @property
    def gap(self) -> int | None:
        """Fig. 1's gap: last used sequence number minus the fetched one."""
        if self.fetched is None:
            return None
        return self.last_used_seq - self.fetched

    @property
    def lost_seqnums(self) -> int | None:
        """Sequence numbers rendered unusable by the leap (claim (i)).

        ``resumed_seq - (last_used_seq + 1)``; negative values mean the
        sender *reused* sequence numbers (only possible in ablations that
        shrink the leap — the bug the paper's 2K leap prevents).
        """
        if self.resumed_seq is None:
            return None
        return self.resumed_seq - (self.last_used_seq + 1)


class BaseSender(Endpoint):
    """Common sender machinery: transmission and traffic clocking.

    The reset/wake lifecycle is :class:`~repro.core.endpoint.Endpoint`'s;
    a sender resumes at ``s`` and restarts its traffic clock.

    Args:
        engine: simulation engine.
        name: trace name (conventionally ``"p"``).
        pipe: where packets go (a :class:`~repro.net.link.Link` or a
            reorder stage in front of one).
        costs: operation cost model (``t_send`` paces ``start_traffic``).
        auditor: optional :class:`DeliveryAuditor` to register sends with.
        sa: security association for ESP/AH encapsulation.
        encap: ``"plain"`` (default), ``"esp"`` or ``"ah"``.
        address: the sender's current network binding, stamped on every
            fresh packet's ``src`` (default ``None`` — the paper's
            address-less model).  A NAT rebinding
            (:class:`repro.faults.NatRebinding`) reassigns it mid-run;
            packets sealed earlier keep the old binding.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        pipe: PacketPipe,
        costs: CostModel = PAPER_COSTS,
        auditor: DeliveryAuditor | None = None,
        sa: SecurityAssociation | None = None,
        encap: str = "plain",
        address: str | None = None,
    ) -> None:
        super().__init__(engine, name, costs)
        self.pipe = pipe
        self.auditor = auditor
        self.sa = sa
        self.encap = encap
        self.address = address
        # Volatile protocol state (erased by a reset).
        self.s = 1  # next sequence number to be sent, initially 1 (paper)
        # Statistics and instrumentation.
        self.sent_total = 0
        self._sends_suppressed = 0
        self.last_sent_seq = 0
        self._send_listeners: list[SendListener] = []
        # The traffic clock: its timer and the attempts left (None: no
        # bound).  While an outage pauses it: the first and the next
        # uncounted instant of its grid, the first sequence number queued
        # after that first instant's tick, the stream's stop instant, and
        # the entry that ends the stream there.
        self._traffic_timer: Timer | None = None
        self._traffic_remaining: int | None = None
        self._traffic_first = 0.0
        self._traffic_next: float | None = None
        self._traffic_after = 0
        self._traffic_stop_at: float | None = None
        self._traffic_end: Event | None = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @property
    def can_send(self) -> bool:
        """Whether the first action's guard (``~wait`` and host up) holds."""
        return self.is_up and not self.wait

    def add_send_listener(self, listener: SendListener) -> None:
        """Register a callback invoked after every fresh transmission."""
        self._send_listeners.append(listener)

    @property
    def sends_suppressed(self) -> int:
        """Attempts made while the send action was disabled, including
        those a paused traffic clock has skipped up to now."""
        self._settle_traffic()
        return self._sends_suppressed

    def send_one(self) -> bool:
        """Attempt to send the next message; returns whether it was sent.

        This is the one per-attempt entry point.  A suppressed attempt
        (host down, or ``wait`` set during post-wake recovery) is counted
        but has no protocol effect — the paper's guard simply keeps the
        action disabled.  The sender's own clock does not call it while
        an outage pauses the clock: it counts those attempts at resume.
        """
        if not self.can_send:
            self._sends_suppressed += 1
            return False
        self._transmit()
        return True

    def _transmit(self) -> None:
        engine = self.engine
        auditor = self.auditor
        packet = seal(
            self.encap, self.sa, self.s, b"", engine.now,
            None if auditor is None else auditor.register_send(), self.address,
        )
        if engine.trace.enabled:
            self.trace("send", seq=self.s)
        self.last_sent_seq = self.s
        self.sent_total += 1
        self.pipe.send(packet)
        self.s += 1
        self._after_send()
        for listener in self._send_listeners:
            listener(self.sent_total, packet)

    def _after_send(self) -> None:
        """Hook for subclasses (the SAVE check of Section 4)."""

    # ------------------------------------------------------------------
    # Traffic clocking
    # ------------------------------------------------------------------
    def start_traffic(
        self, count: int | None = None, interval: float | None = None
    ) -> None:
        """Send continuously, one message every ``interval`` seconds.

        Defaults to the cost model's ``t_send`` (the paper's maximum send
        rate).  ``count`` bounds the number of *attempts* (suppressed
        attempts count — the stream is clocked, not work-conserving).

        The clock's instants form a fixed grid: ``now + interval``, then
        one ``interval`` more each, by repeated float addition.  While
        the host is down or ``wait`` holds, the clock is paused: nothing
        is queued, the grid is kept, and the attempts it skips are
        counted as suppressed in one step at resume.  Only the engine's
        event count differs from ticking through the outage.
        """
        if interval is None:
            interval = self.costs.t_send
        check_positive("interval", interval)
        self.stop_traffic()
        self._traffic_remaining = count
        self._traffic_timer = Timer(self.engine, interval, self._traffic_tick)
        self._traffic_timer.start(first_delay=interval)
        if not self.is_up or self.wait:
            self._pause_traffic()

    def stop_traffic(self) -> None:
        """Stop the clocked traffic stream."""
        if self._traffic_timer is not None:
            self._settle_traffic()
            self._traffic_timer.stop()
            self._traffic_timer = None
        if self._traffic_end is not None:
            self._traffic_end.cancel()
            self._traffic_end = None
        self._traffic_remaining = None
        self._traffic_next = None
        self._traffic_stop_at = None

    def _traffic_tick(self) -> None:
        if self._traffic_remaining is not None:
            if self._traffic_remaining <= 0:
                self.stop_traffic()
                return
            self._traffic_remaining -= 1
        self.send_one()

    def _pause_traffic(self) -> None:
        """Stop the clock for an outage, keeping its grid.

        A count-bounded stream gets one entry at its stop instant, which
        is fixed when the stream starts: if the outage outlasts the
        stream, the stream still ends there, with every attempt counted.
        """
        timer = self._traffic_timer
        if timer is None or self._traffic_next is not None:
            return  # no stream, or already paused
        at, sequence = timer.pause()
        self._traffic_first = self._traffic_next = at
        # Inside the clock's own tick, the next tick would be queued when
        # the tick returns: after everything the reset has queued.
        self._traffic_after = (
            self.engine.scheduled if sequence is None else sequence + 1
        )
        remaining = self._traffic_remaining
        if remaining is None:
            return
        stop_at = self._traffic_stop_at
        if stop_at is None:
            # Computed once a stream, the way the ticks would reach it.
            stop_at = at
            interval = timer.interval
            for _ in range(remaining):
                stop_at += interval
            self._traffic_stop_at = stop_at
        self._traffic_end = self.engine.call_at(stop_at, self.stop_traffic)

    def _settle_traffic(self, resuming: bool = False) -> None:
        """Count the attempts a paused clock has skipped so far.

        Instants before ``now`` are past.  One at ``now`` is past if the
        per-tick clock's tick there would already have fired: see
        :meth:`_tick_first`, which orders it against the recovery step
        running now when ``resuming``, and against an unknown caller
        otherwise.
        """
        at = self._traffic_next
        if at is None:
            return
        now = self.engine.now
        remaining = self._traffic_remaining
        interval = self._traffic_timer.interval  # type: ignore[union-attr]
        skipped = 0
        # ``remaining`` is None for an unbounded stream: never reached.
        while skipped != remaining and at <= now:
            if at == now and not self._tick_first(
                self._recovery if resuming else ((), not self.engine.running)
            ):
                break
            skipped += 1
            at += interval
        if skipped:
            self._sends_suppressed += skipped
            self._traffic_next = at
            if remaining is not None:
                self._traffic_remaining = remaining - skipped

    def _tick_first(self, recovery: Recovery) -> bool:
        """Whether the per-tick clock's tick due now would have fired
        before the event that ``recovery`` says is running now.

        That tick would have been queued by the tick one instant before
        (or, for the first instant of the pause, before the sequence
        number ``_traffic_after``).  So it fires first if it was queued
        first: compare the step's queueing with the previous instant and,
        on a tie there, the step that queued it with that instant's tick,
        and so on back to the root.  A root that ran between runs comes
        after every event of its instant; any other comes before.
        """
        steps, late = recovery
        if not steps:
            return late
        now = self.engine.now
        interval = self._traffic_timer.interval  # type: ignore[union-attr]
        grid = [self._traffic_first]
        while grid[-1] < now:
            grid.append(grid[-1] + interval)
        j = len(grid) - 1
        for queued_at, sequence in reversed(steps):
            if j == 0:
                return sequence >= self._traffic_after
            if queued_at != grid[j - 1]:
                return queued_at > grid[j - 1]
            j -= 1
        return late

    def _resume_traffic(self) -> None:
        """Restart a paused clock at the next instant of its grid."""
        if self._traffic_next is None:
            return
        self._settle_traffic(resuming=True)
        if self._traffic_end is not None:
            self._traffic_end.cancel()
            self._traffic_end = None
        at, self._traffic_next = self._traffic_next, None
        self._traffic_timer.start_at(at)  # type: ignore[union-attr]

    def send_burst(self, n: int) -> int:
        """Send ``n`` messages back-to-back at the current instant.

        Convenience for untimed tests; returns how many were actually sent.
        """
        return sum(1 for _ in range(n) if self.send_one())

    # ------------------------------------------------------------------
    # Reset and resume (the lifecycle is Endpoint's)
    # ------------------------------------------------------------------
    def _go_down(self, save_in_flight: bool) -> SenderResetRecord:
        record = SenderResetRecord(
            reset_time=self.now,
            last_used_seq=self.s - 1,
            save_in_flight=save_in_flight,
            fetched=None,
        )
        self.trace("reset", last_used_seq=record.last_used_seq)
        self._pause_traffic()
        return record

    def _resume_at(
        self, record: SenderResetRecord, seq: int, fetched: int | None
    ) -> None:
        self.s = record.resumed_seq = seq
        self.trace("resume", s=seq, fetched=fetched)
        self._resume_traffic()


class UnprotectedSender(BaseSender):
    """The Section 2 sender: no persistent memory at all.

    On wake-up it restarts with ``s = 1`` (Section 3), immediately ready
    to send — and immediately colliding with the receiver's window.
    """

    def _on_wake(self, record: SenderResetRecord) -> None:
        self._resume(1)


class SaveFetchSender(SaveFetchWake, BaseSender):
    """The Section 4 sender with SAVE and FETCH.

    Args:
        k: the SAVE interval ``Kp`` (messages between checkpoints).
        store: the persistent store; created from ``costs.t_save`` with
            initial value 1 (matching ``lst`` initially 1) when omitted.
        leap_factor: multiple of ``k`` added to the fetched value on wake.
            The paper proves 2 is sufficient; E11 ablates 0 and 1.
        skip_wake_save: ablation switch — if True, the post-wake
            synchronous SAVE is skipped (the "second reset" hazard of
            Section 4 then reintroduces sequence-number reuse).
        **base_kwargs: forwarded to :class:`BaseSender`.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        pipe: PacketPipe,
        k: int,
        store: PersistentStore | None = None,
        leap_factor: int = 2,
        skip_wake_save: bool = False,
        **base_kwargs: Any,
    ) -> None:
        super().__init__(engine, name, pipe, **base_kwargs)
        self._configure(k, store, leap_factor, skip_wake_save, lst=1)

    # -- Section 4, first action: background SAVE every Kp messages -----
    # (the reset and wake actions are Endpoint's and SaveFetchWake's)
    def _after_send(self) -> None:
        if self.s >= self.k + self.lst:
            self.lst = self.s
            self.store.begin_save(self.s)  # "& SAVE(s)" — in the background
