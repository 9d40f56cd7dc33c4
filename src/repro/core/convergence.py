"""Run scoring and convergence verdicts (system S14).

The paper's notion of convergence: after a reset, the pair (p, q) returns
to a state where fresh messages flow and no replayed message is accepted,
with bounded collateral (lost sequence numbers / discarded fresh
messages).  :func:`score_run` turns a finished simulation into a
:class:`ConvergenceReport` with exactly those quantities, and checks them
against the Section 5 bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.audit import AuditReport, DeliveryAuditor
from repro.core.bounds import discarded_fresh_bound, gap_bound, lost_seq_bound
from repro.core.receiver import BaseReceiver, SaveFetchReceiver
from repro.core.sender import BaseSender, SaveFetchSender


@dataclass
class ConvergenceReport:
    """The scored outcome of one simulation run.

    Attributes:
        audit: the raw :class:`AuditReport` (deliveries, duplicates, ...).
        sender_resets / receiver_resets: how many faults each side took.
        replays_accepted: duplicate deliveries (must be 0 for SAVE/FETCH).
        fresh_discarded: fresh messages that arrived but never delivered.
        lost_seqnums_per_reset: per sender reset, sequence numbers lost.
        gaps_sender / gaps_receiver: per reset, the Fig. 1/Fig. 2 gap.
        time_to_converge: per reset, wake -> first subsequent delivery.
        bound_violations: human-readable descriptions of any Section 5
            bound the run violated (empty = the theorems held).
    """

    audit: AuditReport
    sender_resets: int = 0
    receiver_resets: int = 0
    replays_accepted: int = 0
    fresh_discarded: int = 0
    lost_seqnums_per_reset: list[int] = field(default_factory=list)
    gaps_sender: list[int] = field(default_factory=list)
    gaps_receiver: list[int] = field(default_factory=list)
    time_to_converge: list[float] = field(default_factory=list)
    bound_violations: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """No bound violated and no replay accepted."""
        return not self.bound_violations and self.replays_accepted == 0

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"resets: sender={self.sender_resets} receiver={self.receiver_resets}",
            f"fresh sent={self.audit.fresh_sent} delivered={self.audit.delivered_uids}",
            f"replays accepted={self.replays_accepted}",
            f"fresh discarded={self.fresh_discarded}",
        ]
        if self.lost_seqnums_per_reset:
            lines.append(f"lost seqnums per reset={self.lost_seqnums_per_reset}")
        if self.gaps_sender:
            lines.append(f"sender gaps={self.gaps_sender}")
        if self.gaps_receiver:
            lines.append(f"receiver gaps={self.gaps_receiver}")
        lines.append(
            "CONVERGED" if self.converged else f"VIOLATIONS: {self.bound_violations}"
        )
        return "\n".join(lines)


def report_metrics(report: ConvergenceReport) -> dict[str, Any]:
    """Flatten a :class:`ConvergenceReport` into JSON-safe metrics.

    The canonical flat form used by the fleet result store
    (:mod:`repro.fleet.results` re-exports this) and by gateway reports
    (one entry per SA in ``sa_reports``).
    """
    return {
        "converged": report.converged,
        "sender_resets": report.sender_resets,
        "receiver_resets": report.receiver_resets,
        "replays_accepted": report.replays_accepted,
        "fresh_discarded": report.fresh_discarded,
        "lost_seqnums_per_reset": list(report.lost_seqnums_per_reset),
        "gaps_sender": list(report.gaps_sender),
        "gaps_receiver": list(report.gaps_receiver),
        "time_to_converge": list(report.time_to_converge),
        "bound_violations": list(report.bound_violations),
        "fresh_sent": report.audit.fresh_sent,
        "delivered_uids": report.audit.delivered_uids,
        "never_arrived": report.audit.never_arrived,
    }


def score_run(
    auditor: DeliveryAuditor,
    sender: BaseSender | None = None,
    receiver: BaseReceiver | None = None,
    check_bounds: bool = True,
) -> ConvergenceReport:
    """Score a finished run against the paper's guarantees.

    Bound checks only apply where they are claimed: gaps and loss bounds
    for :class:`SaveFetchSender` / :class:`SaveFetchReceiver` resets;
    unprotected endpoints are scored but never "violate" (the paper makes
    no promise for them).
    """
    audit = auditor.report()
    report = ConvergenceReport(
        audit=audit,
        replays_accepted=audit.duplicate_deliveries,
        fresh_discarded=audit.fresh_discarded,
    )

    if sender is not None:
        report.sender_resets = len(sender.reset_records)
        protected = isinstance(sender, SaveFetchSender)
        for record in sender.reset_records:
            if record.gap is not None:
                report.gaps_sender.append(record.gap)
                if check_bounds and protected and record.gap > gap_bound(sender.k):
                    report.bound_violations.append(
                        f"sender gap {record.gap} > 2Kp={gap_bound(sender.k)}"
                    )
            if record.lost_seqnums is not None and protected:
                report.lost_seqnums_per_reset.append(record.lost_seqnums)
                if check_bounds and record.lost_seqnums > lost_seq_bound(sender.k):
                    report.bound_violations.append(
                        f"lost seqnums {record.lost_seqnums} > 2Kp="
                        f"{lost_seq_bound(sender.k)}"
                    )
                if check_bounds and record.lost_seqnums < 0:
                    report.bound_violations.append(
                        f"sequence numbers reused after reset "
                        f"(lost={record.lost_seqnums} < 0)"
                    )

    if receiver is not None:
        report.receiver_resets = len(receiver.reset_records)
        protected_receiver = isinstance(receiver, SaveFetchReceiver)
        for record in receiver.reset_records:
            if record.gap is not None:
                report.gaps_receiver.append(record.gap)
                if (
                    check_bounds
                    and protected_receiver
                    and record.gap > gap_bound(receiver.k)
                ):
                    report.bound_violations.append(
                        f"receiver gap {record.gap} > 2Kq={gap_bound(receiver.k)}"
                    )
            first = record.first_delivery_time
            if first is not None:
                report.time_to_converge.append(first - record.wake_time)
        if (
            check_bounds
            and protected_receiver
            and report.receiver_resets > 0
            and report.sender_resets == 0
            and audit.never_arrived == 0
        ):
            # Claim (ii) applies per reset; conservatively check the total
            # against the summed bound.
            limit = report.receiver_resets * discarded_fresh_bound(receiver.k)
            if report.fresh_discarded > limit:
                report.bound_violations.append(
                    f"fresh discarded {report.fresh_discarded} > "
                    f"{report.receiver_resets} x 2Kq = {limit}"
                )

    if check_bounds and report.replays_accepted > 0:
        protected_pair = isinstance(sender, (SaveFetchSender, type(None))) and isinstance(
            receiver, (SaveFetchReceiver, type(None))
        )
        if protected_pair:
            report.bound_violations.append(
                f"{report.replays_accepted} replayed message(s) accepted"
            )
    return report
