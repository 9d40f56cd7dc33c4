"""A set/dict delivery scorer: the :class:`DeliveryAuditor`'s parity oracle.

The library's auditor reads the uid a packet carries on its envelope and
keeps one byte of flags per uid plus running counters.  This scorer
implements the same scoring in the most obvious way: it maps each
registered packet *object* (by ``id``, keeping the packet alive so the id
stays valid) to its uid, keeps the sent and processed uids in sets and the
per-uid delivery counts in a dict, and recomputes every score from them in
:meth:`report`.  Driving both through the same sends and verdicts must
give identical reports, which the property tests in ``test_audit.py``
check.
"""

from __future__ import annotations

from typing import Any

from repro.core.audit import AuditReport, DeliveryAuditor
from repro.ipsec.replay_window import Verdict


class AuditOracle:
    """Identity-keyed scorer with the :class:`DeliveryAuditor` report."""

    def __init__(self) -> None:
        self._uid_of_packet: dict[int, int] = {}
        self._packets: list[Any] = []  # keep packets alive so id() stays valid
        self._sent_uids: set[int] = set()
        self._delivery_counts: dict[int, int] = {}
        self._processed_uids: set[int] = set()
        self.integrity_rejections = 0
        self.deliveries_total = 0
        self.unknown_packets = 0

    def register_send(self, packet: Any, uid: int) -> None:
        """Record that ``packet`` is fresh transmission number ``uid``."""
        self._uid_of_packet[id(packet)] = uid
        self._packets.append(packet)
        self._sent_uids.add(uid)

    def note_processed(self, packet: Any, verdict: Verdict | str) -> None:
        uid = self._uid_of_packet.get(id(packet))
        if uid is None:
            self.unknown_packets += 1
            return
        self._processed_uids.add(uid)
        if verdict == DeliveryAuditor.INTEGRITY_FAIL:
            self.integrity_rejections += 1
            return
        if verdict.accepted:
            self.deliveries_total += 1
            self._delivery_counts[uid] = self._delivery_counts.get(uid, 0) + 1

    def report(self) -> AuditReport:
        duplicate_deliveries = sum(
            count - 1 for count in self._delivery_counts.values() if count > 1
        )
        delivered = set(self._delivery_counts)
        return AuditReport(
            fresh_sent=len(self._sent_uids),
            delivered_uids=len(delivered),
            duplicate_deliveries=duplicate_deliveries,
            fresh_discarded=sum(
                1
                for uid in self._sent_uids
                if uid in self._processed_uids and uid not in delivered
            ),
            never_arrived=sum(
                1 for uid in self._sent_uids if uid not in self._processed_uids
            ),
            integrity_rejections=self.integrity_rejections,
            deliveries_total=self.deliveries_total,
        )
