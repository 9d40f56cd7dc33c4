"""repro — reproduction of "Convergence of IPsec in Presence of Resets".

Huang, Gouda, Elnozahy (ICDCS 2003 / Journal of High Speed Networks 15(2),
2006).  The library implements:

* the IPsec anti-replay window protocol (Section 2) and its SAVE/FETCH
  reset-tolerant extension (Section 4), as timed state machines on a
  deterministic discrete-event simulator;
* every substrate the paper's evaluation needs: lossy/reordering links,
  the replay adversary, persistent memory with commit latency, ESP/AH
  with enforced integrity, a message-faithful IKE handshake, ICMP and
  dead-peer detection;
* the convergence analysis of Section 5 (gap/loss/discard bounds) and the
  prolonged-reset recovery of Section 6;
* an Abstract Protocol Notation engine with the paper's processes encoded
  literally, plus a bounded model checker over their interleavings.

Quickstart::

    from repro import FaultEnv, Reset, build_protocol

    harness = build_protocol(protected=True, k_p=25, k_q=25)
    harness.sender.start_traffic(count=2000)
    Reset(at=0.004, down_time=0.001).apply(FaultEnv.of(harness))
    harness.run(until=0.05)
    print(harness.score().summary())

The paper's faults — resets and adversary replays — and the gateway
and path faults are kinds of one algebra, :mod:`repro.faults`.

Beyond one pair, :mod:`repro.fleet` scales the same scenarios to whole
campaigns — thousands of independent sessions under mixed reset/loss/replay
stories, run across a process pool with durable, resumable JSONL results
(``python -m repro fleet campaign.json --jobs 8``).

See ``DESIGN.md`` for the full system inventory; the paper-vs-measured
record of every reproduced figure and claim lives in
:mod:`repro.experiments` (run ``python -m repro experiments``).
"""

from repro.core.audit import DeliveryAuditor
from repro.core.ceiling import CeilingReceiver, CeilingSender
from repro.core.baselines import (
    RekeyOutcome,
    RekeySimulation,
    SaveFetchOutcome,
    savefetch_recovery_outcome,
)
from repro.core.convergence import ConvergenceReport, score_run
from repro.core.persistent import PersistentStore
from repro.core.protocol import ProtocolHarness, build_protocol
from repro.core.receiver import SaveFetchReceiver, UnprotectedReceiver
from repro.core.recovery import ProlongedResetSession
from repro.core.sender import SaveFetchSender, UnprotectedSender
from repro.faults import Fault, FaultEnv, Replay, Reset
from repro.fleet import (
    CampaignSpec,
    FleetRunner,
    FleetSummary,
    FleetTask,
    ResultStore,
    ScenarioGrid,
    TaskRecord,
    run_campaign,
    summarize,
)
from repro.ipsec.costs import PAPER_COSTS, CostModel
from repro.ipsec.replay_window import BitmapReplayWindow, Verdict
from repro.net.adversary import ReplayAdversary
from repro.netpath import NatGate, PathPhase, PathProfile
from repro.sim.engine import Engine, EngineEventLimitError

__version__ = "1.0.0"

__all__ = [
    "BitmapReplayWindow",
    "CampaignSpec",
    "CeilingReceiver",
    "CeilingSender",
    "ConvergenceReport",
    "CostModel",
    "DeliveryAuditor",
    "Engine",
    "EngineEventLimitError",
    "Fault",
    "FaultEnv",
    "FleetRunner",
    "FleetSummary",
    "FleetTask",
    "NatGate",
    "PAPER_COSTS",
    "PathPhase",
    "PathProfile",
    "PersistentStore",
    "ProlongedResetSession",
    "ProtocolHarness",
    "RekeyOutcome",
    "RekeySimulation",
    "Replay",
    "ReplayAdversary",
    "Reset",
    "ResultStore",
    "SaveFetchOutcome",
    "SaveFetchReceiver",
    "SaveFetchSender",
    "ScenarioGrid",
    "TaskRecord",
    "UnprotectedReceiver",
    "UnprotectedSender",
    "Verdict",
    "__version__",
    "build_protocol",
    "run_campaign",
    "savefetch_recovery_outcome",
    "score_run",
    "summarize",
]
