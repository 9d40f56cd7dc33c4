"""The paper's contribution: the SAVE/FETCH anti-replay protocol (S8-S14).

Modules:

* :mod:`~repro.core.persistent` — the persistent-memory model behind SAVE
  and FETCH: commit latency, crash-abort semantics, background vs
  synchronous saves.
* :mod:`~repro.core.endpoint` — the reset/wake lifecycle ``p`` and ``q``
  share, with Section 4's wake written once for both.
* :mod:`~repro.core.sender` — process ``p``: the unprotected Section 2
  sender and the Section 4 SAVE/FETCH sender.
* :mod:`~repro.core.receiver` — process ``q``: unprotected and SAVE/FETCH
  receivers, including the post-wake buffering of Section 4.
* :mod:`~repro.core.audit` — the omniscient delivery auditor that scores
  runs (duplicate deliveries = replays accepted, fresh discards, losses).
* :mod:`~repro.core.protocol` — one-call wiring of engine + link + sender
  + receiver + auditor (+ adversary), the main experiment entry point.
* :mod:`~repro.core.bounds` — the closed-form bounds of Section 5
  (gap <= 2K, lost <= 2Kp, discarded <= 2Kq) and of the failure analysis
  of Section 3, for experiments to compare against.
* :mod:`~repro.core.convergence` — run scoring and convergence reports.
* :mod:`~repro.core.baselines` — the IETF tear-down-and-rekey remedy.
* :mod:`~repro.core.dpd` — dead-peer detection (heartbeat and
  traffic-based, after the two cited IETF drafts).
* :mod:`~repro.core.recovery` — the Section 6 prolonged-reset recovery
  protocol over a bidirectional SA pair.
"""

from repro.core.audit import DeliveryAuditor
from repro.core.bounds import (
    discarded_fresh_bound,
    gap_bound,
    lost_seq_bound,
    predicted_sender_gap,
    rekey_recovery_time,
    savefetch_recovery_time,
    unprotected_fresh_discards,
    unprotected_replay_exposure,
)
from repro.core.convergence import ConvergenceReport, score_run
from repro.core.persistent import PersistentStore, SaveRecord
from repro.core.protocol import ProtocolHarness, build_protocol
from repro.core.receiver import ReceiverResetRecord, SaveFetchReceiver, UnprotectedReceiver
from repro.core.sender import SaveFetchSender, SenderResetRecord, UnprotectedSender

__all__ = [
    "ConvergenceReport",
    "DeliveryAuditor",
    "PersistentStore",
    "ProtocolHarness",
    "ReceiverResetRecord",
    "SaveFetchReceiver",
    "SaveFetchSender",
    "SaveRecord",
    "SenderResetRecord",
    "UnprotectedReceiver",
    "UnprotectedSender",
    "build_protocol",
    "discarded_fresh_bound",
    "gap_bound",
    "lost_seq_bound",
    "predicted_sender_gap",
    "rekey_recovery_time",
    "savefetch_recovery_time",
    "score_run",
    "unprotected_fresh_discards",
    "unprotected_replay_exposure",
]
