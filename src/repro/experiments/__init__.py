"""Experiment harness (system S18): one module per reproduced artifact.

Every module declares its experiment as a fleet-executed sweep: a
``sweep(...) -> SweepSpec`` factory (named parameter axes, scenario
references into ``workloads.SCENARIOS``, and a per-row reducer).  One
way runs it: hand the spec to
:class:`~repro.experiments.sweep.ExperimentDriver` —
``ExperimentDriver(e03_sender_loss.sweep(ks=[10, 40])).run()`` — serial,
parallel (``jobs=N``), or resumable (file-backed store).  The full-size
specs are registered in :data:`repro.experiments.runall.EXPERIMENTS`;
benchmarks under ``benchmarks/`` run smaller specs the same way, with
timing.  The experiment <-> paper-artifact mapping lives in
``DESIGN.md``.

==========  ==========================================================
module      paper artifact
==========  ==========================================================
e01         Fig. 1 — sender-reset gap across the SAVE cycle
e02         Fig. 2 — receiver-reset gap across the SAVE cycle
e03         Section 5 claim (i) — lost sequence numbers <= 2Kp
e04         Section 5 claim (ii) — fresh discards <= 2Kq, replays = 0
e05         Section 3 — unbounded failures of the unprotected protocol
e06         Section 4 — SAVE interval sizing (K >= T_save/T_send = 25)
e07         Section 3 — IETF full-rekey cost vs SAVE/FETCH recovery
e08         Section 5 third case — dual resets (+ the staggered-reset
            boundary found by the model checker)
e09         Section 6 — prolonged-reset recovery over bidirectional SAs
e10         Section 2 — w-Delivery under reorder (motivates ref [2])
e11         Section 4 — second-reset hazard / wake-SAVE + leap ablation
e12         Section 6 — the replayed "reset notice" strawman attack
e13         supplementary — dead-peer detection time vs probe cadence
e14         extension — replay exposure under bursty loss (loss hole)
e15         extension — gateway-scale convergence: N SAs, one crash,
            one shared store (SA count x write-policy sweep)
e16         extension — path dynamics: flaps, mobile handovers and NAT
            rebindings crossed with the reset schedule
==========  ==========================================================
"""

from repro.experiments.common import ExperimentResult, render_table
from repro.experiments.sweep import (
    ExperimentDriver,
    ExperimentTaskError,
    SweepPoint,
    SweepSpec,
    TaskCall,
)

__all__ = [
    "ExperimentDriver",
    "ExperimentResult",
    "ExperimentTaskError",
    "SweepPoint",
    "SweepSpec",
    "TaskCall",
    "render_table",
]
