"""Write-ahead *ceiling* variant — a repair discovered by this reproduction.

Model-checking the paper's SAVE/FETCH protocol (see
:mod:`repro.verify`) confirms its Section 5 theorems for the setting the
proofs assume — a lossless channel and resets on one side at a time — but
finds two boundary cases where "no replayed message will be accepted"
fails:

1. **loss before a receiver reset**: if the channel drops messages, one
   received message can advance the right edge ``r`` by more than ``Kq``,
   so the last committed checkpoint can lag ``r`` by more than ``2Kq``
   and the wake-up leap no longer clears every delivered sequence number;
2. **staggered dual resets**: a sender reset leaps ``s`` by ``2Kp``,
   which (once one post-leap message arrives) jumps ``r`` the same way;
   a receiver reset landing inside the following save window has the same
   effect.

Both have one root cause: SAVE checkpoints *where the counter has been*,
so its guarantee degrades when the counter moves faster than the
checkpoint cadence.  The classical fix — used by production IPsec
implementations for the sender counter — is to checkpoint *where the
counter is allowed to go*:

* The :class:`CeilingSender` never sends a sequence number unless a
  strictly larger **ceiling** is already committed to persistent memory;
  it reserves ``k`` numbers ahead in the background.  On wake-up it
  simply resumes at ``s := FETCH()``: every previously used number is
  strictly below the fetched ceiling, unconditionally.
* The :class:`CeilingReceiver` never *delivers* a sequence number unless
  it is strictly below the committed ceiling; messages at or above it are
  buffered while a new ceiling is committed.  On wake-up it resumes with
  ``r := FETCH()`` and the window flooded — every previously delivered
  number is below the new right edge, so no replay is accepted, under
  loss, reorder and arbitrarily interleaved resets.

The price is a bounded stall (at most one save latency) when traffic
outruns the reservation, and up to ``k`` sequence numbers lost per reset
(vs ``2k`` for SAVE/FETCH).  The APN form of this protocol is
:func:`repro.apn.specs_ceiling.make_ceiling_system`, which the explorer
verifies safe in exactly the configurations where SAVE/FETCH fails.
"""

from __future__ import annotations

from typing import Any

from repro.core.endpoint import Endpoint
from repro.core.persistent import PersistentStore
from repro.core.receiver import BaseReceiver, ReceiverResetRecord
from repro.core.sender import BaseSender
from repro.ipsec.replay_window import Verdict
from repro.net.link import PacketPipe
from repro.sim.engine import Engine
from repro.util.validation import check_positive_int


class CeilingWake(Endpoint):
    """The ceiling's wake, written once for ``p`` and ``q``.

    FETCH the committed ceiling, wait out the FETCH delay, and resume
    there: every number already used (sent, or delivered) is strictly
    below it, so no leap and no wake SAVE is needed.  The FETCH is
    issued at the wake, as :class:`~repro.core.endpoint.SaveFetchWake`
    issues its own: on a shared store the delay is this FETCH's slot on
    the device.  Nothing commits while ``wait`` holds, so the value read
    at the wake is the value at the resume.
    """

    def _on_wake(self, record: Any) -> None:
        fetched = self.store.fetch()  # type: ignore[union-attr]
        record.fetched = fetched
        self._after_fetch(lambda: self._resume(fetched, fetched))


class CeilingSender(CeilingWake, BaseSender):
    """Sender that persists a sequence-number ceiling *before* using it.

    Args:
        k: reservation chunk — how many sequence numbers each ceiling
            save covers.  Line-rate operation needs ``k`` at least the
            cost model's ``min_save_interval()`` (the paper's sizing
            rule, unchanged): each save must grant at least as many
            numbers as are consumed while it commits.
        **base_kwargs: forwarded to :class:`BaseSender`.

    The next chunk is reserved once at most ``headroom`` numbers remain
    under the committed ceiling: the cost model's ``min_save_interval()``,
    one save latency of line-rate sending, so the next chunk lands before
    the current one is exhausted.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        pipe: PacketPipe,
        k: int,
        store: PersistentStore | None = None,
        **base_kwargs: Any,
    ) -> None:
        super().__init__(engine, name, pipe, **base_kwargs)
        self.k = check_positive_int("k", k)
        self.headroom = self.costs.min_save_interval()
        # The SA-establishment write: the first chunk is reserved before
        # the first message is ever sent.
        self._attach_store(store, initial_value=1 + self.k)
        self.stalls = 0

    @property
    def committed_ceiling(self) -> int:
        """Largest value such that every used seq is strictly below it."""
        return self.store.committed_value

    @property
    def can_send(self) -> bool:
        return super().can_send and self.s < self.committed_ceiling

    def send_one(self) -> bool:
        if self.is_up and not self.wait and self.s >= self.committed_ceiling:
            # Traffic outran the reservation: stall (and make sure a
            # reservation is in flight so the stall is bounded).
            self.stalls += 1
            self._reserve_if_needed()
            self._sends_suppressed += 1
            self.trace("stall", s=self.s, ceiling=self.committed_ceiling)
            return False
        return super().send_one()

    def _after_send(self) -> None:
        self._reserve_if_needed()

    def _reserve_if_needed(self) -> None:
        remaining = self.committed_ceiling - self.s
        if remaining <= self.headroom and not self.store.save_in_flight:
            self.store.begin_save(self.committed_ceiling + self.k)


class CeilingReceiver(CeilingWake, BaseReceiver):
    """Receiver that persists a delivery ceiling *before* crossing it.

    A message whose sequence number is at or above the committed ceiling
    is buffered; a new ceiling covering it (plus ``k`` slack) is saved;
    the buffer drains on commit.  Wake-up resumes at ``r := FETCH()``
    with the window flooded — no replayed message is ever accepted,
    regardless of loss, reorder or concurrent sender resets.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        k: int,
        store: PersistentStore | None = None,
        **base_kwargs: Any,
    ) -> None:
        super().__init__(engine, name, **base_kwargs)
        self.k = check_positive_int("k", k)
        self._attach_store(store, initial_value=self.k)  # first chunk, at SA setup
        self.buffered_for_ceiling = 0
        self._ceiling_buffer: list[Any] = []
        self._raise_in_flight = False

    @property
    def committed_ceiling(self) -> int:
        """Every delivered seq is strictly below this committed value."""
        return self.store.committed_value

    def _process(self, packet: Any) -> None:
        seq = getattr(packet, "seq", None)
        if (
            isinstance(seq, int)
            and seq >= self.committed_ceiling
            and self.is_up
            and not self.wait
        ):
            # Crossing the ceiling: hold the packet, commit a higher one.
            self._ceiling_buffer.append(packet)
            self.buffered_for_ceiling += 1
            self.trace("ceiling_buffer", seq=seq, ceiling=self.committed_ceiling)
            self._raise_ceiling(seq + self.k)
            return
        super()._process(packet)

    def _raise_ceiling(self, target: int) -> None:
        if self._raise_in_flight:
            return

        self._raise_in_flight = True
        highest = max(
            [target]
            + [
                packet.seq + self.k
                for packet in self._ceiling_buffer
                if isinstance(getattr(packet, "seq", None), int)
            ]
        )

        def on_commit() -> None:
            self._raise_in_flight = False
            buffered, self._ceiling_buffer = self._ceiling_buffer, []
            self._drain(buffered)

        self.store.begin_save(highest, on_commit=on_commit)

    def _after_process(self, verdict: Verdict) -> None:
        # Proactive background reservation, mirroring the sender.
        r = self.window.right_edge
        if (
            self.committed_ceiling - r <= max(1, self.k // 2)
            and not self.store.save_in_flight
        ):
            self.store.begin_save(self.committed_ceiling + self.k)

    def _go_down(self, save_in_flight: bool) -> ReceiverResetRecord:
        record = super()._go_down(save_in_flight)
        # The raise in flight aborts with the store's SAVEs.
        self._ceiling_buffer.clear()
        self._raise_in_flight = False
        return record
