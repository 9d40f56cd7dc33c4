"""Process ``q`` — the receiver (Sections 2 and 4 of the paper).

Two concrete receivers share :class:`BaseReceiver`:

* :class:`UnprotectedReceiver` — the Section 2 process: just the window
  ``(wdw, r)``.  On wake-up after a reset the window state is gone and q
  "resumes its operation with r set to 0" (Section 3) — at which point an
  adversary can replay the entire pre-reset history.

* :class:`SaveFetchReceiver` — the Section 4 process.  After processing
  each message it checks ``r >= Kq + lst`` and if so initiates a
  background ``SAVE(r)``.  On wake-up it runs ``FETCH(r);
  SAVE(r + 2Kq); r := r + 2Kq; lst := r`` and floods the whole window to
  *received* ("every sequence number up to r should be assumed to be
  already received").  Messages arriving while the post-wake SAVE is in
  flight are "temporarily kept ... in a buffer" and adjudicated after the
  commit — both behaviours are implemented literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.audit import DeliveryAuditor
from repro.core.encap import IntegrityError, open_packet
from repro.core.endpoint import Endpoint, SaveFetchWake
from repro.core.persistent import PersistentStore
from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.ipsec.replay_window import BitmapReplayWindow, Verdict
from repro.ipsec.sa import SecurityAssociation
from repro.sim.engine import Engine

#: Listener signature for :meth:`BaseReceiver.add_process_listener`:
#: ``(packet, verdict)`` after every processed packet.
ProcessListener = Callable[[Any, Verdict], None]

#: Default window size; RFC 2401 recommends a minimum of 32, default 64.
DEFAULT_WINDOW = 64


@dataclass
class ReceiverResetRecord:
    """Everything about one receiver reset/wake cycle (feeds Fig. 2 / E2 / E4).

    Attributes:
        reset_time: when the reset hit.
        right_edge_at_reset: ``r`` at crash time.
        save_in_flight: whether a background SAVE was executing (Fig. 2's
            two cases).
        fetched: value FETCH returned on wake (None for unprotected).
        resumed_right_edge: ``r`` after recovery completed.
        wake_time: when the host came back up.
        resume_time: when normal processing resumed (post-wake SAVE
            committed and the buffer drained).
        buffered_during_wake: messages held in the wake buffer.
        first_delivery_time: when the first delivery after the wake
            happened (None until one does).
    """

    reset_time: float
    right_edge_at_reset: int
    save_in_flight: bool
    fetched: int | None
    resumed_right_edge: int | None = None
    wake_time: float | None = None
    resume_time: float | None = None
    buffered_during_wake: int = 0
    first_delivery_time: float | None = None

    @property
    def gap(self) -> int | None:
        """Fig. 2's gap: right edge at reset minus the fetched value."""
        if self.fetched is None:
            return None
        return self.right_edge_at_reset - self.fetched


class BaseReceiver(Endpoint):
    """Common receiver machinery: decapsulation and the window.

    The reset/wake lifecycle is :class:`~repro.core.endpoint.Endpoint`'s;
    a receiver resumes with a new window flooded up to ``r`` and then
    adjudicates what it buffered during recovery.

    Args:
        engine: simulation engine.
        name: trace name (conventionally ``"q"``).
        w: anti-replay window size, checked by
            :class:`~repro.ipsec.replay_window.BitmapReplayWindow`.
        costs: operation cost model.
        auditor: optional :class:`DeliveryAuditor` for run scoring.
        sa: security association for ESP/AH decapsulation.
        encap: ``"plain"`` (default), ``"esp"`` or ``"ah"``.
        on_deliver: optional callback ``(seq, payload)`` per delivery.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        w: int = DEFAULT_WINDOW,
        costs: CostModel = PAPER_COSTS,
        auditor: DeliveryAuditor | None = None,
        sa: SecurityAssociation | None = None,
        encap: str = "plain",
        on_deliver: Callable[[int, bytes], None] | None = None,
    ) -> None:
        super().__init__(engine, name, costs)
        self.window = BitmapReplayWindow(w)
        self.auditor = auditor
        self.sa = sa
        self.encap = encap
        self.on_deliver = on_deliver
        # Statistics.
        self.delivered_total = 0
        self._verdict_counts = [0] * len(Verdict)  # by Verdict.index
        self.integrity_failures = 0
        self.dropped_while_down = 0
        # Woken reset records whose first delivery has not happened yet.
        self._awaiting_delivery: list[ReceiverResetRecord] = []
        self._process_listeners: list[ProcessListener] = []
        self._wake_buffer: list[Any] = []

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    @property
    def right_edge(self) -> int:
        """Current right edge ``r`` of the anti-replay window."""
        return self.window.right_edge

    @property
    def verdict_counts(self) -> dict[Verdict, int]:
        """Processed packets per window verdict, in definition order."""
        return {v: self._verdict_counts[v.index] for v in Verdict}

    def add_process_listener(self, listener: ProcessListener) -> None:
        """Register a callback invoked after every processed packet."""
        self._process_listeners.append(listener)

    def on_receive(self, packet: Any) -> None:
        """Link sink: handle one arriving packet."""
        if not self.is_up:
            # The host is off; the packet is lost like any other arriving
            # at a dead interface.
            self.dropped_while_down += 1
            if self.engine.trace.enabled:
                self.trace("drop_down", packet=repr(packet))
            return
        if self.wait:
            # Section 4: buffer until the post-wake SAVE commits.
            self._wake_buffer.append(packet)
            if self.reset_records:
                self.reset_records[-1].buffered_during_wake += 1
            if self.engine.trace.enabled:
                self.trace("buffer", packet=repr(packet))
            return
        self._process(packet)

    def _process(self, packet: Any) -> None:
        engine = self.engine
        try:
            seq, payload = open_packet(self.encap, self.sa, packet)
        except IntegrityError:
            self.integrity_failures += 1
            if engine.trace.enabled:
                self.trace("integrity_fail", packet=repr(packet))
            if self.auditor is not None:
                self.auditor.note_processed(packet, DeliveryAuditor.INTEGRITY_FAIL)
            return
        verdict = self.window.update(seq)
        self._verdict_counts[verdict.index] += 1
        if self.auditor is not None:
            self.auditor.note_processed(packet, verdict)
        if verdict.accepted:
            self.delivered_total += 1
            if self._awaiting_delivery:
                for record in self._awaiting_delivery:
                    record.first_delivery_time = engine.now
                self._awaiting_delivery.clear()
            if engine.trace.enabled:
                self.trace("deliver", seq=seq, verdict=verdict.value)
            if self.on_deliver is not None:
                self.on_deliver(seq, payload)
        elif engine.trace.enabled:
            self.trace("discard", seq=seq, verdict=verdict.value)
        self._after_process(verdict)
        for listener in self._process_listeners:
            listener(packet, verdict)

    def _after_process(self, verdict: Verdict) -> None:
        """Hook for subclasses (the SAVE check of Section 4)."""

    # ------------------------------------------------------------------
    # Reset, wake and resume (the lifecycle is Endpoint's)
    # ------------------------------------------------------------------
    def _go_down(self, save_in_flight: bool) -> ReceiverResetRecord:
        record = ReceiverResetRecord(
            reset_time=self.now,
            right_edge_at_reset=self.window.right_edge,
            save_in_flight=save_in_flight,
            fetched=None,
        )
        self.trace("reset", right_edge=record.right_edge_at_reset)
        self._wake_buffer.clear()  # volatile; lost with the host
        return record

    def _wake(self) -> None:
        # From its wake on, a record waits for the first delivery.
        self._awaiting_delivery.append(self.reset_records[-1])
        super()._wake()

    def _resume_at(
        self, record: ReceiverResetRecord, edge: int, fetched: int | None
    ) -> None:
        # "every sequence number up to r should be assumed to be already
        # received": a new window, all of it marked seen.  Then what was
        # buffered during the recovery is adjudicated.
        self.window = BitmapReplayWindow(self.window.w)
        self.window.resume(edge)
        record.resumed_right_edge = edge
        self.trace("resume", r=edge, fetched=fetched)
        buffered, self._wake_buffer = self._wake_buffer, []
        self._drain(buffered)

    def _drain(self, buffered: list[Any]) -> None:
        """Process held packets in order.  A reset that strikes during the
        drain (from a process listener) loses the rest with the host, as
        :meth:`_go_down` loses a buffer it finds undrained."""
        resets = len(self.reset_records)
        for packet in buffered:
            if len(self.reset_records) != resets:
                return
            self._process(packet)


class UnprotectedReceiver(BaseReceiver):
    """The Section 2 receiver: window state only, no persistence.

    On wake-up the window is recreated in its cold-start state (``r = 0``):
    every sequence number above 0 now looks fresh, which is what lets the
    Section 3 adversary replay the entire history.
    """

    def _on_wake(self, record: ReceiverResetRecord) -> None:
        self._resume(0)


class SaveFetchReceiver(SaveFetchWake, BaseReceiver):
    """The Section 4 receiver with SAVE and FETCH.

    Args:
        k: the SAVE interval ``Kq`` (window advance between checkpoints).
        store: persistent store (default: built from ``costs``, initial
            value 0 matching ``lst`` initially 0).
        leap_factor: multiple of ``k`` added on wake (paper: 2; E11 ablates).
        skip_wake_save: ablation switch for the synchronous post-wake SAVE.
        **base_kwargs: forwarded to :class:`BaseReceiver`.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        k: int,
        store: PersistentStore | None = None,
        leap_factor: int = 2,
        skip_wake_save: bool = False,
        **base_kwargs: Any,
    ) -> None:
        super().__init__(engine, name, **base_kwargs)
        self._configure(k, store, leap_factor, skip_wake_save, lst=0)

    # -- Section 4, first action: background SAVE every Kq advance ------
    # (the reset and wake actions are Endpoint's and SaveFetchWake's)
    def _after_process(self, verdict: Verdict) -> None:
        r = self.window.right_edge
        if r >= self.k + self.lst:
            self.lst = r
            self.store.begin_save(r)  # "& SAVE(r)" — in the background
