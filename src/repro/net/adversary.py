"""The replay adversary of Section 3.

The paper's threat model: "At any instant, an adversary can insert in the
message stream from p to q a copy of any message t that was sent earlier by
p."  The adversary cannot forge messages (integrity is protected by the
SA's keys) — it can only *record and replay*.

:class:`ReplayAdversary` taps a link to record every legitimately sent
packet, then mounts the concrete attacks the paper describes:

* :meth:`replay_history` — Section 3, receiver-reset attack: "an adversary
  can replay in order all the messages with sequence numbers within the
  range from 1 to x".
* :meth:`replay_max` — Section 3, dual-reset attack: replay the message
  with the *largest* recorded sequence number to force q to shift its
  window past the sender's current counter ("forces q to shift the right
  edge of its anti-replay window to z").
* :meth:`replay_range` — gap-targeted: replay exactly the messages whose
  sequence numbers fall in the save gap ``(fetched, last_used]``, the
  window the leap number must cover.
* :meth:`replay_random` — background replay noise.

Every injection goes through :meth:`Link.inject`, so replays experience the
same loss and delay as legitimate traffic.

The adversary must keep every packet (any earlier message may be
replayed), so the record is one list of packets and nothing more.  A
SAVE/FETCH sender never reuses or lowers a sequence number, so its record
is already sorted by sequence number and :meth:`replay_range` bisects it;
a record that is not (the unprotected sender restarting at 1, or packets
without an ``int`` ``seq``) is scanned instead.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Any

from repro.net.link import Link
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.util.rng import make_rng
from repro.util.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
)

_seq = attrgetter("seq")


def _int_seq(packet: Any) -> int | None:
    """A packet's ``seq`` if it is an ``int``, else ``None``."""
    seq = getattr(packet, "seq", None)
    return seq if isinstance(seq, int) else None


class ReplayAdversary(SimProcess):
    """An on-path attacker that records and replays link traffic.

    Args:
        engine: the simulation engine.
        link: the link to tap and inject into.
        name: trace name (default ``"adversary"``).
        seed: RNG seed for the randomised strategies.

    Attributes:
        recorded: every packet observed on the tapped link, in
            transmission order.  Replayed copies are not re-recorded.
            Read it, do not modify it: :meth:`replay_range` trusts the
            order checked as each packet was appended.
        injections: number of packets this adversary has inserted.
    """

    def __init__(
        self,
        engine: Engine,
        link: Link,
        name: str = "adversary",
        seed: int | None = None,
    ) -> None:
        super().__init__(engine, name)
        self.link = link
        self.recorded: list[Any] = []
        self.injections = 0
        self._rng = make_rng(seed)
        # True while every recorded packet has an ``int`` ``seq`` and the
        # sequence numbers never decrease; ``_last_seq`` is the latest.
        self._in_order = True
        self._last_seq: float = float("-inf")
        link.add_tap(self._observe)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _observe(self, time: float, packet: Any, injected: bool) -> None:
        if injected:
            return  # do not re-record our own (or another attacker's) insertions
        self.recorded.append(packet)
        if self._in_order:
            seq = getattr(packet, "seq", None)
            if type(seq) is int and seq >= self._last_seq:
                self._last_seq = seq
            else:
                self._in_order = False

    def highest_seq_packet(self) -> Any | None:
        """The recorded packet with the largest sequence number, if any."""
        best = None
        best_seq: int | None = None
        for packet in self.recorded:
            seq = _int_seq(packet)
            if seq is None:
                continue
            if best_seq is None or seq > best_seq:
                best, best_seq = packet, seq
        return best

    # ------------------------------------------------------------------
    # Injection primitives
    # ------------------------------------------------------------------
    def inject_now(self, packet: Any) -> None:
        """Insert one recorded packet into the stream immediately."""
        self.injections += 1
        if self.engine.trace.enabled:
            self.trace("inject", packet=repr(packet))
        self.link.inject(packet)

    def _inject_sequence(self, packets: list[Any], rate: float, start_delay: float) -> int:
        """Schedule ``packets`` for injection at ``rate`` packets/second."""
        check_positive("rate", rate)
        check_non_negative("start_delay", start_delay)
        gap = 1.0 / rate
        for index, packet in enumerate(packets):
            self.engine.post_later(start_delay + index * gap, self.inject_now, packet)
        return len(packets)

    # ------------------------------------------------------------------
    # Attack strategies (Section 3)
    # ------------------------------------------------------------------
    def replay_history(
        self,
        rate: float = 1e6,
        start_delay: float = 0.0,
        limit: int | None = None,
    ) -> int:
        """Replay the entire recorded history, in original order.

        This is the receiver-reset attack: after q restarts with ``r = 0``,
        "all these replayed messages will be unsuspectedly accepted by q".
        ``limit`` replays only the first ``limit`` recorded packets.

        Returns:
            The number of injections scheduled.
        """
        if limit is not None:
            check_non_negative_int("limit", limit)
        return self._inject_sequence(self.recorded[:limit], rate, start_delay)

    def replay_max(self, start_delay: float = 0.0) -> int:
        """Replay the recorded packet with the highest sequence number.

        This is the dual-reset window-jump attack: forcing q's right edge
        to a value z above the sender's restarted counter desynchronises
        the unprotected protocol permanently.

        Returns:
            1 if a packet was scheduled, 0 if nothing has been recorded.
        """
        packet = self.highest_seq_packet()
        if packet is None:
            return 0
        self.engine.post_later(start_delay, self.inject_now, packet)
        return 1

    def replay_range(
        self,
        lo: int,
        hi: int,
        rate: float = 1e6,
        start_delay: float = 0.0,
    ) -> int:
        """Replay every recorded packet with sequence number in ``[lo, hi]``.

        Gap-targeted attack: aimed at the sequence numbers between the
        fetched checkpoint and the last counter value used before a reset —
        exactly the numbers the ``2K`` leap must render unusable.

        Packets go out in recorded order.  While the record is sorted by
        sequence number (repeats allowed) the matching packets are one
        contiguous run, found by bisection; otherwise the whole record is
        scanned.  Both pick the same packets.
        """
        recorded = self.recorded
        if self._in_order:
            start = bisect_left(recorded, lo, key=_seq)
            packets = recorded[start:bisect_right(recorded, hi, start, key=_seq)]
        else:
            packets = [
                packet
                for packet in recorded
                if (seq := _int_seq(packet)) is not None and lo <= seq <= hi
            ]
        return self._inject_sequence(packets, rate, start_delay)

    def replay_random(
        self,
        count: int,
        rate: float = 1e6,
        start_delay: float = 0.0,
    ) -> int:
        """Replay ``count`` uniformly chosen recorded packets (with repeats)."""
        check_non_negative_int("count", count)
        if not self.recorded or count == 0:
            return 0
        packets = [self._rng.choice(self.recorded) for _ in range(count)]
        return self._inject_sequence(packets, rate, start_delay)
