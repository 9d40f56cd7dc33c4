"""E2 — Figure 2: the receiver-reset gap across the SAVE cycle.

Mirror of E1 for process q: a reset lands ``t`` messages after a receiver
SAVE begins; FETCH returns either the previous checkpoint (in-flight case,
gap ``<= 2Kq``) or the fresh one (committed case, gap ``<= Kq``).  The
channel is lossless and in-order, the hypothesis of the paper's Fig. 2
analysis (the right edge advances by exactly one per received message).
"""

from __future__ import annotations

from typing import Any

from repro.core.bounds import gap_bound
from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    k: int = 50,
    offsets: list[int] | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the receiver-reset sweep across one SAVE cycle (see E1)."""
    if offsets is None:
        offsets = list(range(0, k, max(1, k // 25)))
    anchor = 2 * k
    bound = gap_bound(k)

    points = [
        SweepPoint(
            axis={"offset_msgs": offset},
            calls={"run": TaskCall(
                scenario="receiver_reset",
                params=dict(
                    protected=True,
                    k=k,
                    reset_after_receives=anchor + offset,
                    messages_after_reset=4 * k,
                    costs=costs,
                ),
                seed=seed,
            )},
        )
        for offset in offsets
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        record = m["receiver_reset_records"][0]
        gap = record["gap"] if record["gap"] is not None else -1
        return dict(
            offset_msgs=axis["offset_msgs"],
            save_in_flight=record["save_in_flight"],
            gap=gap,
            bound_2k=bound,
            within_bound=gap <= bound,
            fresh_discarded=m["fresh_discarded"],
            discard_bound_2k=bound,
            replays_accepted=m["replays_accepted"],
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        max_gap = max((row["gap"] for row in rows), default=-1)
        max_discarded = max((row["fresh_discarded"] for row in rows), default=-1)
        return [
            f"k={k}; max measured gap {max_gap} vs bound 2k={bound}; "
            f"max fresh discards {max_discarded} vs claim (ii) bound {bound}"
        ]

    return SweepSpec(
        experiment_id="E2",
        title="receiver-reset gap vs position in the SAVE cycle",
        paper_artifact="Figure 2 and the Section 5 receiver analysis",
        columns=[
            "offset_msgs",
            "save_in_flight",
            "gap",
            "bound_2k",
            "within_bound",
            "fresh_discarded",
            "discard_bound_2k",
            "replays_accepted",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
