"""Controlled message reordering.

The paper defines reorder *degree*: "A message m is said to suffer a
reorder of degree w iff the w-th message sent (by p) after m is received
(by q) before m."  The anti-replay window then guarantees *w-Delivery*:
every message with reorder degree < w (and not lost) is delivered.

:class:`DegreeReorderStage` produces reorders of an exact chosen degree:
with probability ``probability`` it holds a packet back and releases it
only after ``degree`` subsequent packets have passed it.  Placing the stage
in front of a FIFO link gives full control of the reorder pattern, which is
what Experiment E10 sweeps to reproduce the discard-vs-window-size
behaviour that motivates reference [2] of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.link import PacketPipe
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative_int, check_probability


@dataclass
class _HeldPacket:
    """A packet being held back, and how many more passes it must suffer."""

    packet: Any
    remaining: int = field(default=0)


class DegreeReorderStage:
    """Hold selected packets back so they suffer a reorder of exact degree.

    Args:
        downstream: the pipe (usually a FIFO :class:`~repro.net.link.Link`)
            that receives the possibly-permuted stream.
        degree: how many later packets overtake a held packet.  A held
            packet is re-offered immediately after the ``degree``-th
            subsequent packet, i.e. it suffers a reorder of exactly
            ``degree`` (assuming the downstream is FIFO and lossless).
        probability: chance that any given packet is selected for holding.
        seed: RNG seed or generator for the selection draws.

    Notes:
        Every subsequent *offer* (held or not) counts toward a held
        packet's passage, so the suffered reorder degree is exactly
        ``degree`` when holds do not overlap and **at most** ``degree``
        when they do — guaranteeing that ``degree < w`` never causes a
        w-Delivery discard.  :meth:`flush` releases everything held
        (call it at the end of a scenario so no packet is stranded).
    """

    def __init__(
        self,
        downstream: PacketPipe,
        degree: int,
        probability: float,
        seed: int | None = None,
    ) -> None:
        self.downstream = downstream
        self.degree = check_non_negative_int("degree", degree)
        self.probability = check_probability("probability", probability)
        self._rng = make_rng(seed)
        self._held: list[_HeldPacket] = []
        self.held_total = 0

    def send(self, packet: Any) -> None:
        """Offer a packet; it may be delayed behind ``degree`` successors."""
        prior_held = list(self._held)
        if self.degree > 0 and self._rng.random() < self.probability:
            self._held.append(_HeldPacket(packet, remaining=self.degree))
            self.held_total += 1
        else:
            self.downstream.send(packet)
        # This offer is one more "message sent after m" for every packet
        # that was already being held (but not for the one just added).
        released: list[Any] = []
        for held in prior_held:
            held.remaining -= 1
            if held.remaining <= 0:
                released.append(held.packet)
        if released:
            self._held = [h for h in self._held if h.remaining > 0]
            for held_packet in released:
                self.downstream.send(held_packet)

    def flush(self) -> int:
        """Release all held packets immediately; return how many."""
        count = len(self._held)
        for held in self._held:
            self.downstream.send(held.packet)
        self._held.clear()
        return count

    @property
    def currently_held(self) -> int:
        """Number of packets currently being held back."""
        return len(self._held)
