"""E5 — Section 3: the unprotected protocol fails *unboundedly*; SAVE/FETCH
holds the damage at a constant (the reproduction's headline comparison).

Two failure modes, swept over the pre-reset traffic volume ``x``:

* **receiver reset** — "an adversary can replay in order all the messages
  with sequence numbers within the range from 1 to x, and all these
  replayed messages will be unsuspectedly accepted by q": accepted
  replays grow ~linearly with ``x`` unprotected, stay 0 with SAVE/FETCH.
* **sender reset** — "all fresh messages sent from p to q with sequence
  numbers less than y - w + 1 ... will be discarded by q": fresh discards
  grow ~linearly with ``x`` unprotected, stay <= 2Kp with SAVE/FETCH.

Expected crossover: the unprotected lines grow without bound while both
SAVE/FETCH lines are flat — "who wins" at every ``x``, by a factor that
itself grows linearly.
"""

from __future__ import annotations

from typing import Any

from repro.core.bounds import discarded_fresh_bound, lost_seq_bound
from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    traffic_volumes: list[int] | None = None,
    k: int = 25,
    w: int = 64,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the pre-reset traffic sweep: unprotected vs SAVE/FETCH."""
    if traffic_volumes is None:
        traffic_volumes = [100, 250, 500, 1000, 2500]

    def rx_call(protected: bool, x: int) -> TaskCall:
        return TaskCall(
            scenario="receiver_reset",
            params=dict(
                protected=protected,
                k=k,
                w=w,
                reset_after_receives=x,
                messages_after_reset=0,
                costs=costs,
                replay_history_after=True,
            ),
            seed=seed,
        )

    def tx_call(protected: bool, x: int) -> TaskCall:
        return TaskCall(
            scenario="sender_reset",
            params=dict(
                protected=protected,
                k=k,
                w=w,
                reset_after_sends=x,
                messages_after_reset=x,  # give the restarted sender x messages
                costs=costs,
            ),
            seed=seed,
        )

    points = [
        SweepPoint(
            axis={"x_pre_reset": x},
            calls={
                "unprot_rx": rx_call(False, x),
                "sf_rx": rx_call(True, x),
                "unprot_tx": tx_call(False, x),
                "sf_tx": tx_call(True, x),
            },
        )
        for x in traffic_volumes
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        sf_tx_record = metrics["sf_tx"]["sender_reset_records"][0]
        return dict(
            x_pre_reset=axis["x_pre_reset"],
            unprot_replays_accepted=metrics["unprot_rx"]["replays_accepted"],
            sf_replays_accepted=metrics["sf_rx"]["replays_accepted"],
            unprot_fresh_discarded=metrics["unprot_tx"]["fresh_discarded"],
            sf_fresh_discarded=metrics["sf_tx"]["fresh_discarded"],
            sf_lost_seqnums=sf_tx_record["lost_seqnums"],
            sf_bounds=f"<= {lost_seq_bound(k)}/{discarded_fresh_bound(k)}",
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        built = []
        replays = [row["unprot_replays_accepted"] for row in rows]
        if len(replays) >= 2 and replays[0] and replays[-1]:
            built.append(
                f"unprotected replay acceptance grows {replays[-1] / replays[0]:.1f}x "
                f"as traffic grows {traffic_volumes[-1] / traffic_volumes[0]:.1f}x "
                "(linear, unbounded); SAVE/FETCH flat at 0"
            )
        built.append(
            f"SAVE/FETCH collateral is constant in x: lost <= {lost_seq_bound(k)}, "
            f"discards <= {discarded_fresh_bound(k)}, independent of history length"
        )
        return built

    return SweepSpec(
        experiment_id="E5",
        title="failure growth vs pre-reset traffic: unprotected vs SAVE/FETCH",
        paper_artifact="Section 3 failure modes vs Section 5 guarantees",
        columns=[
            "x_pre_reset",
            "unprot_replays_accepted",
            "sf_replays_accepted",
            "unprot_fresh_discarded",
            "sf_fresh_discarded",
            "sf_lost_seqnums",
            "sf_bounds",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
