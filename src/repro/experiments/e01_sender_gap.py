"""E1 — Figure 1: the sender-reset gap across the SAVE cycle.

The paper's Fig. 1 analyses a reset landing ``t`` messages after a SAVE
begins, in two cases: before the SAVE commits (FETCH returns the previous
checkpoint, gap ``<= 2Kp``) and after (FETCH returns the fresh one, gap
``<= Kp``).  This experiment sweeps the reset position across one whole
SAVE cycle and records the measured gap, the in-flight flag, and the
``2Kp`` bound.

Expected shape (reproducing Fig. 1): a rising ramp from ``~Kp`` while the
save is in flight, dropping to a ramp from ``~0`` once it commits, never
touching ``2Kp``.  With the paper's cost constants a save spans
``T_save/T_send = 25`` messages, so choosing ``k > 25`` shows both
regimes.
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
    """Declare the sweep of the sender reset across one SAVE cycle.

    Args:
        k: SAVE interval ``Kp`` (choose > ``costs.min_save_interval()``
            so both Fig. 1 cases appear).
        offsets: reset positions within the cycle, in messages after the
            cycle's SAVE initiation (default: every position in
            ``[0, k)`` stepping by ``max(1, k // 25)``).
        costs: cost model (save duration in messages comes from it).
        seed: scenario seed.
    """
    save_span = costs.min_save_interval()  # messages per save duration
    if offsets is None:
        offsets = list(range(0, k, max(1, k // 25)))
    # Anchor in the cycle that starts with the SAVE initiated right after
    # send number 2k (the third checkpoint; steady state).
    anchor = 2 * k
    bound = gap_bound(k)

    points = [
        SweepPoint(
            axis={"offset_msgs": offset},
            calls={"run": TaskCall(
                scenario="sender_reset",
                params=dict(
                    protected=True,
                    k=k,
                    reset_after_sends=anchor + offset,
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
        record = m["sender_reset_records"][0]
        gap = record["gap"] if record["gap"] is not None else -1
        return dict(
            offset_msgs=axis["offset_msgs"],
            save_in_flight=record["save_in_flight"],
            gap=gap,
            bound_2k=bound,
            within_bound=gap <= bound,
            lost_seqnums=record["lost_seqnums"],
            fresh_discarded=m["fresh_discarded"],
            replays_accepted=m["replays_accepted"],
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        max_gap = max((row["gap"] for row in rows), default=-1)
        built = [
            f"k={k}, save spans {save_span} messages; max measured gap "
            f"{max_gap} vs bound 2k={bound}"
        ]
        in_flight_gaps = [row["gap"] for row in rows if row["save_in_flight"]]
        committed_gaps = [row["gap"] for row in rows if not row["save_in_flight"]]
        if in_flight_gaps and committed_gaps:
            built.append(
                f"Fig.1 shape: in-flight gaps {min(in_flight_gaps)}..{max(in_flight_gaps)} "
                f"(> k case), committed gaps {min(committed_gaps)}..{max(committed_gaps)} "
                f"(< k case)"
            )
        return built

    return SweepSpec(
        experiment_id="E1",
        title="sender-reset gap vs position in the SAVE cycle",
        paper_artifact="Figure 1 and the Section 5 sender analysis",
        columns=[
            "offset_msgs",
            "save_in_flight",
            "gap",
            "bound_2k",
            "within_bound",
            "lost_seqnums",
            "fresh_discarded",
            "replays_accepted",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
