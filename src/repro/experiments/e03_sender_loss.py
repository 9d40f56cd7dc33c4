"""E3 — Section 5 claim (i): bounded loss, zero discards, after a sender reset.

"When the sender is reset, a bounded number of sequence numbers will be
lost but no fresh message will be discarded by the receiver if no message
reorder occurs. ... the total number of lost sequence number is bounded by
2Kp."

Sweeps ``Kp`` and, for each, takes the worst case over several distinct
reset positions in the SAVE cycle.  Channel: in-order, lossless (the
claim's hypothesis).  Expected: ``max lost <= 2Kp`` with the bound nearly
tight, ``fresh_discarded == 0`` and ``replays_accepted == 0`` everywhere.
"""

from __future__ import annotations

from typing import Any

from repro.core.bounds import lost_seq_bound
from repro.experiments.common import costs_for_k, swept_offsets
from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    ks: list[int] | None = None,
    offsets_per_k: int = 6,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the ``Kp`` sweep; each row takes the worst case over offsets."""
    if ks is None:
        ks = [5, 10, 25, 50, 100]

    points = []
    for k in ks:
        k_costs = costs_for_k(k, costs)
        points.append(SweepPoint(
            axis={"k_p": k},
            calls={
                f"o{offset}": TaskCall(
                    scenario="sender_reset",
                    params=dict(
                        protected=True,
                        k=k,
                        reset_after_sends=2 * k + offset,
                        messages_after_reset=4 * k,
                        costs=k_costs,
                    ),
                    seed=seed,
                )
                for offset in swept_offsets(k, offsets_per_k)
            },
        ))

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        k = axis["k_p"]
        max_lost = -1
        total_discarded = 0
        total_replays = 0
        all_converged = True
        for m in metrics.values():
            record = m["sender_reset_records"][0]
            lost = record["lost_seqnums"] if record["lost_seqnums"] is not None else -1
            max_lost = max(max_lost, lost)
            total_discarded += m["fresh_discarded"]
            total_replays += m["replays_accepted"]
            all_converged = all_converged and m["converged"]
        bound = lost_seq_bound(k)
        return dict(
            k_p=k,
            max_lost=max_lost,
            bound_2k=bound,
            within_bound=max_lost <= bound,
            bound_tightness=round(max_lost / bound, 3) if bound else 0.0,
            fresh_discarded=total_discarded,
            replays_accepted=total_replays,
            converged=all_converged,
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "claim (i) shape: max lost grows linearly in Kp, stays under 2Kp; "
            "no fresh message discarded on the in-order lossless channel",
            "each k runs under a cost model with the save spanning k//2 "
            "messages, keeping the Section 4 sizing rule strictly satisfied",
        ]

    return SweepSpec(
        experiment_id="E3",
        title="lost sequence numbers after a sender reset vs Kp",
        paper_artifact="Section 5 claim (i): lost <= 2Kp, no fresh discards",
        columns=[
            "k_p",
            "max_lost",
            "bound_2k",
            "within_bound",
            "bound_tightness",
            "fresh_discarded",
            "replays_accepted",
            "converged",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
