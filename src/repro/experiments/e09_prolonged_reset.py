"""E9 — Section 6: surviving prolonged resets over a bidirectional SA.

The concluding remarks' protocol: the live host learns of the outage from
ICMP destination-unreachable, holds its SAs for a keep-alive period
instead of deleting them, and the reset host announces recovery with a
secured message carrying its leaped sequence number; a replayed old
message cannot impersonate that announcement because its sequence number
falls below the live host's right edge.

Sweeps the outage duration against a fixed keep-alive budget, with a
replay adversary injecting recorded b->a traffic into the live host
during the outage.  Expected: for outages under the keep-alive, traffic
resumes (resync accepted, zero replays accepted, recovery time tracks the
outage); past the keep-alive, the session reports expiry (the fall-back
to full rekey measured by E7).
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    outages: list[float] | None = None,
    keep_alive_timeout: float = 1.0,
    k: int = 25,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the outage-duration sweep vs a fixed keep-alive budget."""
    if outages is None:
        outages = [0.05, 0.2, 0.5, 2.0]

    points = [
        SweepPoint(
            axis={"outage_s": outage},
            calls={"run": TaskCall(
                scenario="prolonged_reset",
                params=dict(
                    outage=outage,
                    keep_alive_timeout=keep_alive_timeout,
                    k=k,
                    costs=costs,
                ),
                seed=seed,
            )},
        )
        for outage in outages
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        return dict(
            outage_s=axis["outage_s"],
            detected=m["detected"],
            keepalive_expired=m["keepalive_expired"],
            resync_accepted=m["resync_accepted"],
            resync_seq=m["resync_seq"],
            recovery_s=round(m["recovery_s"], 4),
            replays_injected=m["replays_injected"],
            replays_accepted=m["replays_accepted"],
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            f"keep-alive budget {keep_alive_timeout}s: outages below it recover "
            "via the secured resync message (recovery time ~ outage); the one "
            "above it reports expiry — the fall-back to full rekey whose cost "
            "E7 measures",
            "replayed b->a traffic injected during the outage is never "
            "accepted by the live host (sequence numbers at or below its "
            "right edge)",
        ]

    return SweepSpec(
        experiment_id="E9",
        title="prolonged-reset recovery over a bidirectional SA pair",
        paper_artifact="Section 6 concluding remarks (keep-alive + resync)",
        columns=[
            "outage_s",
            "detected",
            "keepalive_expired",
            "resync_accepted",
            "resync_seq",
            "recovery_s",
            "replays_injected",
            "replays_accepted",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
