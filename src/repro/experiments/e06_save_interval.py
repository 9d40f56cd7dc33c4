"""E6 — Section 4: sizing the SAVE interval.

Two questions from the paper's design discussion:

1. **How small may K be?**  "Our choice of the interval between two SAVEs
   is the maximum number of messages that can be sent during the
   execution time of SAVE" — with the measured constants (100 us save,
   4 us send) that is ``K >= 25``.  Below the rule, saves overlap
   (``max_concurrent_saves > 1``) and the checkpoint can lag more than
   ``2K``; above it, overhead falls but worst-case post-reset loss
   (``2K``) grows linearly.  The knee sits exactly at 25.

2. **Messages or seconds?**  "measuring the interval in terms of time
   leads to wasteful SAVEs because when the interval to the next SAVE
   expires, the sequence number has not advanced much."  A second sweep
   (:func:`policy_sweep`) drives the same sender with bursty on/off
   traffic under (a) the paper's count-based policy and (b) a timer-based
   policy of equivalent steady-state cadence, and counts *wasteful* saves
   (advance < K since the previous save) — see
   :func:`repro.workloads.scenarios.run_save_policy_scenario`.
"""

from __future__ import annotations

from typing import Any

from repro.core.bounds import save_overhead_fraction
from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS

__all__ = [
    "policy_sweep",
    "sweep",
]


def sweep(
    ks: list[int] | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the ``K`` sweep under the paper's fixed cost constants."""
    if ks is None:
        ks = [5, 10, 15, 20, 25, 50, 100, 200]
    rule = costs.min_save_interval()

    points = [
        SweepPoint(
            axis={"k": k},
            calls={"run": TaskCall(
                scenario="sender_reset",
                params=dict(
                    protected=True,
                    k=k,
                    # Reset at the most adversarial spot we can cheaply
                    # target: right as a steady-state save begins.
                    reset_after_sends=4 * k,
                    messages_after_reset=4 * k,
                    costs=costs,
                ),
                seed=seed,
            )},
        )
        for k in ks
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        k = axis["k"]
        m = metrics["run"]
        record = m["sender_reset_records"][0]
        gap = record["gap"] if record["gap"] is not None else -1
        return dict(
            k=k,
            rule_satisfied=k >= rule,
            overhead_fraction=round(save_overhead_fraction(k, costs), 4),
            max_concurrent_saves=m["max_concurrent_saves"],
            worst_case_loss_2k=2 * k,
            measured_lost=record["lost_seqnums"],
            measured_gap=gap,
            gap_bound_ok=gap <= 2 * k,
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            f"sizing rule: K >= T_save/T_send = {rule}; below it saves overlap "
            "(max_concurrent_saves > 1) and the 2K guarantee is no longer "
            "covered by the paper's analysis; above it worst-case loss 2K "
            "grows linearly while overhead falls as 1/K — the knee is at "
            f"K = {rule}"
        ]

    return SweepSpec(
        experiment_id="E6",
        title="SAVE interval sizing under the Pentium-III cost model",
        paper_artifact="Section 4 sizing rule: K >= T_save/T_send = 25",
        columns=[
            "k",
            "rule_satisfied",
            "overhead_fraction",
            "max_concurrent_saves",
            "worst_case_loss_2k",
            "measured_lost",
            "measured_gap",
            "gap_bound_ok",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )


# ----------------------------------------------------------------------
# Count-based vs time-based SAVE policy under bursty traffic
# ----------------------------------------------------------------------
def policy_sweep(
    ks: list[int] | None = None,
    costs: CostModel = PAPER_COSTS,
) -> SweepSpec:
    """Declare the count-vs-time policy comparison sweep."""
    if ks is None:
        ks = [25, 50, 100]

    points = [
        SweepPoint(
            axis={"k": k},
            calls={"run": TaskCall(
                scenario="save_policy",
                params=dict(k=k, costs=costs),
            )},
        )
        for k in ks
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        return dict(
            k=m["k"],
            messages=m["messages_sent"],
            count_saves=m["count_based_saves"],
            time_saves=m["time_based_saves"],
            time_wasteful=m["time_based_wasteful"],
            waste_fraction=round(m["waste_fraction"], 3),
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "under on/off traffic the timer policy keeps saving through idle "
            "periods (advance < K per save), the waste the paper's "
            "message-count policy avoids by construction"
        ]

    return SweepSpec(
        experiment_id="E6b",
        title="count-based vs time-based SAVE policy under bursty traffic",
        paper_artifact="Section 4: why the interval is measured in messages",
        columns=[
            "k",
            "messages",
            "count_saves",
            "time_saves",
            "time_wasteful",
            "waste_fraction",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
