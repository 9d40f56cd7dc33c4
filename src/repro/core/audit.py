"""Omniscient run scoring (the experimenter's bird's-eye view).

The protocol endpoints can only see what arrives on the wire; whether a
delivered message was a *replay* or a discarded message was *fresh* is a
global fact involving the sender's history and the adversary's actions.
:class:`DeliveryAuditor` tracks that global view:

* the sender asks :meth:`~DeliveryAuditor.register_send` for a uid per
  **fresh** transmission and stamps it on the packet's envelope, outside
  the ICV (instrumentation only — uids never influence protocol
  decisions); a replayed copy is the recorded packet, so it carries its
  original's uid;
* the receiver reports every processed packet with its verdict;
* the auditor then scores the run:

  - ``duplicate_deliveries`` — deliveries of a uid already delivered.
    This is exactly a violation of the paper's *Discrimination* condition
    ("q delivers at most one copy of every message sent by p") and is the
    paper's meaning of "replayed messages accepted".
  - ``fresh_discarded`` — uids that reached the receiver at least once but
    were never delivered by the end of the run: the paper's "fresh
    messages discarded by q".
  - ``never_arrived`` — uids that were sent but never processed by the
    receiver (channel loss or host-down loss), excluded from the
    fresh-discard count by definition (claim (ii) bounds discards "if no
    message loss occurs").

Each auditor issues its uids densely from its own block
(``serial * 2**40 + index``), so uids are unique within a process, the
per-uid state is one byte of flags at ``index``, and a packet stamped by
another auditor (another SA) falls outside the block and counts as
unknown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.ipsec.replay_window import Verdict

#: Uid block size and block serials, one per auditor (serial 0 is never
#: used, so small literal uids in hand-built packets never alias a real one).
_BLOCK = 2**40
_serials = itertools.count(1)

#: Per-uid flags.
_PROCESSED, _DELIVERED = 1, 2


@dataclass
class AuditReport:
    """Aggregate scores computed by :meth:`DeliveryAuditor.report`."""

    fresh_sent: int
    delivered_uids: int
    duplicate_deliveries: int
    fresh_discarded: int
    never_arrived: int
    integrity_rejections: int
    deliveries_total: int

    @property
    def replays_accepted(self) -> int:
        """Paper terminology for :attr:`duplicate_deliveries`."""
        return self.duplicate_deliveries


class DeliveryAuditor:
    """Tracks fresh sends and receiver outcomes; see module docstring."""

    #: Verdict label used when integrity verification failed before the
    #: window was consulted (ESP/AH modes under the rekey baseline).
    INTEGRITY_FAIL = "integrity_fail"

    def __init__(self) -> None:
        self._base = next(_serials) * _BLOCK
        self._flags = bytearray()  # per issued uid, at uid - _base
        self._processed = 0  # uids processed at least once
        self._delivered = 0  # uids delivered at least once
        self.integrity_rejections = 0
        self.deliveries_total = 0
        self.unknown_packets = 0

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def register_send(self) -> int:
        """Issue the uid of one fresh transmission."""
        flags = self._flags
        flags.append(0)
        return self._base + len(flags) - 1

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def note_processed(self, packet: Any, verdict: Verdict | str) -> None:
        """Record the receiver's verdict for one arriving packet.

        ``verdict`` is a window :class:`Verdict` or the string
        :data:`INTEGRITY_FAIL`.
        """
        uid = packet.uid
        flags = self._flags
        index = -1 if uid is None else uid - self._base
        if not 0 <= index < len(flags):
            self.unknown_packets += 1
            return
        state = flags[index]
        if not state & _PROCESSED:
            self._processed += 1
        if verdict == self.INTEGRITY_FAIL:
            self.integrity_rejections += 1
        elif verdict.accepted:
            self.deliveries_total += 1
            if not state & _DELIVERED:
                self._delivered += 1
            flags[index] = _PROCESSED | _DELIVERED
            return
        flags[index] = state | _PROCESSED

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def report(self) -> AuditReport:
        """The aggregate scores for the run so far (O(1))."""
        sent = len(self._flags)
        return AuditReport(
            fresh_sent=sent,
            delivered_uids=self._delivered,
            duplicate_deliveries=self.deliveries_total - self._delivered,
            fresh_discarded=self._processed - self._delivered,
            never_arrived=sent - self._processed,
            integrity_rejections=self.integrity_rejections,
            deliveries_total=self.deliveries_total,
        )

    # Convenience accessors used heavily by tests -----------------------
    @property
    def replays_accepted(self) -> int:
        """Duplicate deliveries so far (paper: replayed messages accepted)."""
        return self.report().duplicate_deliveries

    @property
    def fresh_discarded(self) -> int:
        """Fresh messages that arrived but were never delivered."""
        return self.report().fresh_discarded
