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
from repro.core.persistent import PersistentStore
from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.ipsec.sa import SecurityAssociation
from repro.net.link import PacketPipe
from repro.sim.engine import Engine
from repro.sim.process import SimProcess, Timer
from repro.util.validation import (
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

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


class BaseSender(SimProcess):
    """Common sender machinery: transmission, traffic clocking, fault hooks.

    Args:
        engine: simulation engine.
        name: trace name (conventionally ``"p"``).
        pipe: where packets go (a :class:`~repro.net.link.Link` or a
            reorder stage in front of one).
        costs: operation cost model (``t_send`` paces ``start_traffic``).
        auditor: optional :class:`DeliveryAuditor` to register sends with.
        sa: security association for ESP/AH encapsulation.
        encap: ``"plain"`` (default), ``"esp"`` or ``"ah"``.
        payload: application payload placed in every message.
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
        payload: bytes = b"",
        address: str | None = None,
    ) -> None:
        super().__init__(engine, name)
        self.pipe = pipe
        self.costs = costs
        self.auditor = auditor
        self.sa = sa
        self.encap = encap
        self.payload = payload
        self.address = address
        # Volatile protocol state (erased by a reset).
        self.s = 1  # next sequence number to be sent, initially 1 (paper)
        self.wait = False
        # Host/fault state.
        self.is_up = True
        # Statistics and instrumentation.
        self.sent_total = 0
        self.sends_suppressed = 0
        self.last_sent_seq = 0
        self.reset_records: list[SenderResetRecord] = []
        self._send_listeners: list[SendListener] = []
        self._resume_listeners: list[Callable[[], None]] = []
        self._traffic_timer: Timer | None = None
        self._traffic_remaining: int | None = None

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

    def add_resume_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback invoked when post-reset recovery completes."""
        self._resume_listeners.append(listener)

    def _notify_resumed(self) -> None:
        for listener in self._resume_listeners:
            listener()

    def send_one(self) -> bool:
        """Attempt to send the next message; returns whether it was sent.

        A suppressed attempt (host down, or ``wait`` set during post-wake
        recovery) is counted but has no protocol effect — the paper's
        guard simply keeps the action disabled.
        """
        if not self.can_send:
            self.sends_suppressed += 1
            return False
        self._transmit()
        return True

    def _transmit(self) -> None:
        engine = self.engine
        auditor = self.auditor
        packet = seal(
            self.encap, self.sa, self.s, self.payload, engine.now,
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
        """
        if interval is None:
            interval = self.costs.t_send
        check_positive("interval", interval)
        self.stop_traffic()
        self._traffic_remaining = count
        self._traffic_timer = Timer(self.engine, interval, self._traffic_tick)
        self._traffic_timer.start(first_delay=interval)

    def stop_traffic(self) -> None:
        """Stop the clocked traffic stream."""
        if self._traffic_timer is not None:
            self._traffic_timer.stop()
            self._traffic_timer = None
        self._traffic_remaining = None

    def _traffic_tick(self) -> None:
        if self._traffic_remaining is not None:
            if self._traffic_remaining <= 0:
                self.stop_traffic()
                return
            self._traffic_remaining -= 1
        self.send_one()

    def send_burst(self, n: int) -> int:
        """Send ``n`` messages back-to-back at the current instant.

        Convenience for untimed tests; returns how many were actually sent.
        """
        return sum(1 for _ in range(n) if self.send_one())

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def reset(self, down_for: float | None = 0.0) -> SenderResetRecord:
        """A reset hits the host: volatile state is lost.

        Args:
            down_for: how long the host stays down before waking.  ``None``
                means "stay down until :meth:`wake` is called explicitly".

        Returns:
            The (still-incomplete) :class:`SenderResetRecord` for this cycle.
        """
        record = SenderResetRecord(
            reset_time=self.now,
            last_used_seq=self.s - 1,
            save_in_flight=self._save_in_flight(),
            fetched=None,
        )
        self.reset_records.append(record)
        self.trace("reset", last_used_seq=record.last_used_seq)
        self.is_up = False
        self.wait = True  # paper: second action sets wait := true
        self._on_crash(record)
        if down_for is not None:
            self.call_later(down_for, self.wake)
        return record

    def wake(self) -> None:
        """The host comes back up; run the recovery action."""
        if self.is_up:
            return
        self.is_up = True
        record = self.reset_records[-1]
        record.wake_time = self.now
        self.trace("wake")
        self._on_wake(record)

    def _save_in_flight(self) -> bool:
        """Whether a background SAVE is currently executing (subclass)."""
        return False

    def _on_crash(self, record: SenderResetRecord) -> None:
        """Subclass hook: abort in-flight persistent operations."""

    def _on_wake(self, record: SenderResetRecord) -> None:
        """Subclass hook: the paper's third action."""
        raise NotImplementedError


class UnprotectedSender(BaseSender):
    """The Section 2 sender: no persistent memory at all.

    On wake-up it restarts with ``s = 1`` (Section 3), immediately ready
    to send — and immediately colliding with the receiver's window.
    """

    def _on_wake(self, record: SenderResetRecord) -> None:
        self.s = 1
        record.resumed_seq = self.s
        record.resume_time = self.now
        self.wait = False
        self.trace("resume", s=self.s)
        self._notify_resumed()


class SaveFetchSender(BaseSender):
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
        self.k = check_positive_int("k", k)
        self.leap_factor = check_non_negative_int("leap_factor", leap_factor)
        self.skip_wake_save = skip_wake_save
        if store is None:
            store = PersistentStore(
                engine,
                f"disk:{name}",
                t_save=self.costs.t_save,
                t_fetch=self.costs.t_fetch,
                initial_value=1,
            )
        self.store = store
        self.lst = 1  # last stored sequence number, initially 1 (paper)

    # -- Section 4, first action: background SAVE every Kp messages -----
    def _after_send(self) -> None:
        if self.s >= self.k + self.lst:
            self.lst = self.s
            self.store.begin_save(self.s)  # "& SAVE(s)" — in the background

    def _save_in_flight(self) -> bool:
        return self.store.save_in_flight

    # -- Section 4, second action: reset --------------------------------
    def _on_crash(self, record: SenderResetRecord) -> None:
        self.store.crash()

    # -- Section 4, third action: wake-up recovery ----------------------
    def _on_wake(self, record: SenderResetRecord) -> None:
        fetched = self.store.fetch()
        record.fetched = fetched
        leaped = fetched + self.leap_factor * self.k

        def resume() -> None:
            self.s = leaped
            self.lst = leaped
            self.wait = False
            record.resumed_seq = self.s
            record.resume_time = self.now
            self.trace("resume", s=self.s, fetched=fetched)
            self._notify_resumed()

        if self.skip_wake_save:
            # Ablation: use the leaped number without persisting it first.
            self.call_later(self.store.fetch_delay(), resume)
            return

        def after_fetch() -> None:
            # "it will wait for the SAVE to finish before it sends the
            # next message" — resume only on commit.
            self.store.begin_save(leaped, on_commit=resume, synchronous=True)

        fetch_delay = self.store.fetch_delay()
        if fetch_delay > 0:
            self.call_later(fetch_delay, after_fetch)
        else:
            after_fetch()
