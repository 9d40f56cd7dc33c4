"""The plain protocol message ``msg(s)`` of the paper.

The anti-replay protocol of Section 2 exchanges messages that carry only a
sequence number; real IPsec packets (with SPI, ICV, payload) live in
:mod:`repro.ipsec.esp`.  :class:`Message` is an immutable named tuple, so
an adversary's recorded copy is byte-for-byte the original — replaying
cannot accidentally mutate anything.  Equality is tuple equality: a
``Message`` equals the plain tuple of its fields.  A modified copy is
``message._replace(...)``.
"""

from __future__ import annotations

from typing import NamedTuple


class Message(NamedTuple):
    """An application message ``msg(seq)`` from sender to receiver.

    Attributes:
        seq: the sequence number attached by the sender.
        payload: opaque application payload (defaults to ``b""``).
        sent_at: simulated time of the *original* transmission.  A replayed
            copy keeps the original ``sent_at``, which is how traces
            distinguish fresh deliveries from replays post hoc.
        src: source address the packet was sent from (``None`` — the
            paper's address-less model — unless the sender is given an
            address).  A NAT rebinding changes the sender's address
            mid-SA, so packets sealed before the rebinding keep the old
            binding: exactly the in-flight traffic that exercises the
            receiver-side rebinding policy (:mod:`repro.netpath.nat`).
        uid: the audit uid of the fresh transmission this packet is
            (:mod:`repro.core.audit`; ``None`` when the sender has no
            auditor).  Instrumentation only: protocol logic never reads
            it, and a replayed copy carries its original's uid.
    """

    seq: int
    payload: bytes = b""
    sent_at: float = 0.0
    src: str | None = None
    uid: int | None = None

    def __repr__(self) -> str:
        return f"msg({self.seq})"
