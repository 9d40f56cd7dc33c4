"""Extended sequence numbers (ESN, RFC 4304 model).

The paper models sequence numbers as unbounded integers; real ESP carries
only 32 bits on the wire and either rekeys before wrap or negotiates
*extended sequence numbers*: a 64-bit counter of which only the low 32
bits are transmitted, with the receiver *inferring* the high half from
its anti-replay window position.

This module supplies that inference so the reproduction's protocols can
be run over a 32-bit wire without violating the paper's unbounded-counter
model:

* :func:`infer_esn` — RFC 4304 Appendix A's reconstruction: given the
  receiver's last known 64-bit right edge and a received low-32 value,
  pick the candidate high half (``h-1``, ``h`` or ``h+1``) that places
  the sequence number closest to the window.
* :class:`EsnCodec` — stateful wrapper pairing a sender-side truncation
  with a receiver-side reconstruction, for use in front of a
  :class:`~repro.ipsec.replay_window.BitmapReplayWindow`.

The SAVE/FETCH interaction is the interesting part: after a reset the
receiver's right edge *leaps*, and the inference must keep tracking —
property-tested in ``tests/ipsec/test_esn.py`` including wrap boundaries.
"""

from __future__ import annotations

#: Width of the on-wire sequence number field.
WIRE_BITS = 32
_WIRE_MOD = 1 << WIRE_BITS
_HALF = 1 << (WIRE_BITS - 1)


def truncate_esn(seq64: int) -> int:
    """Sender side: the low 32 bits that actually travel."""
    if seq64 < 0:
        raise ValueError(f"sequence numbers are non-negative, got {seq64}")
    return seq64 & (_WIRE_MOD - 1)


def infer_esn(right_edge64: int, wire_seq: int, w: int) -> int:
    """Receiver side: reconstruct the 64-bit value of ``wire_seq``.

    Args:
        right_edge64: the receiver's current 64-bit right edge ``r``.
        wire_seq: the received low-32 value.
        w: anti-replay window size (the inference needs it to decide
            whether a smaller low-half means "behind, same epoch" or
            "ahead, next epoch", per RFC 4304).

    Returns:
        The inferred 64-bit sequence number.

    The rule (RFC 4304 Appendix A, case analysis collapsed): consider the
    candidates sharing the wire value in the current, previous and next
    32-bit epochs, and return the one closest to the right edge, with the
    tie broken toward accepting plausible fresh traffic (the same rule
    real implementations use; against an adversary the ICV check is what
    actually authenticates the guessed high half).
    """
    if not 0 <= wire_seq < _WIRE_MOD:
        raise ValueError(f"wire_seq must fit {WIRE_BITS} bits, got {wire_seq}")
    epoch = right_edge64 >> WIRE_BITS
    candidates = [
        (candidate_epoch << WIRE_BITS) | wire_seq
        for candidate_epoch in (epoch - 1, epoch, epoch + 1)
        if candidate_epoch >= 0
    ]
    # Closest to the window: prefer in-window/just-ahead over far-away.
    def distance(candidate: int) -> tuple[int, int]:
        if candidate > right_edge64:
            return (candidate - right_edge64, 0)  # ahead: plausible fresh
        return (right_edge64 - candidate, 1)  # behind: plausible replay

    best = min(candidates, key=distance)
    return best


class EsnCodec:
    """Stateful sender/receiver pair over a 32-bit wire.

    The receiver side must be fed its window's right edge before each
    decode (the window owns the authoritative 64-bit position).
    """

    def __init__(self, w: int) -> None:
        self.w = w

    def encode(self, seq64: int) -> int:
        """Sender: wire representation of ``seq64``."""
        return truncate_esn(seq64)

    def decode(self, right_edge64: int, wire_seq: int) -> int:
        """Receiver: 64-bit reconstruction given the current right edge."""
        return infer_esn(right_edge64, wire_seq, self.w)
