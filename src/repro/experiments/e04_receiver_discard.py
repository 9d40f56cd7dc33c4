"""E4 — Section 5 claim (ii): bounded fresh discards, zero replays,
after a receiver reset.

"When the receiver is reset, the number of discarded fresh messages is
bounded [by 2Kq]. ... In either case, no replayed message will be accepted
by q."

For each ``Kq`` the sweep runs, over several distinct reset positions in
the SAVE cycle:

* a **clean** run (no adversary injections) measuring fresh discards —
  the claim (ii) quantity, uncontaminated by replayed copies of messages
  the downtime swallowed;
* an **attacked** run where the Section 3 adversary replays the entire
  recorded history the instant the receiver wakes — checking the
  unconditional "no replayed message accepted".

Expected: ``max fresh_discarded <= 2Kq`` and ``replays_accepted == 0``
for every ``Kq``.  Each ``k`` runs under a cost model in which the save
spans ``k // 2`` messages (see E3's sizing note).
"""

from __future__ import annotations

from typing import Any

from repro.core.bounds import discarded_fresh_bound
from repro.experiments.common import costs_for_k, swept_offsets
from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    ks: list[int] | None = None,
    offsets_per_k: int = 6,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the ``Kq`` sweep; each row pairs clean and attacked runs."""
    if ks is None:
        ks = [5, 10, 25, 50, 100]

    points = []
    for k in ks:
        k_costs = costs_for_k(k, costs)
        calls: dict[str, TaskCall] = {}
        for offset in swept_offsets(k, offsets_per_k):
            calls[f"clean_o{offset}"] = TaskCall(
                scenario="receiver_reset",
                params=dict(
                    protected=True,
                    k=k,
                    reset_after_receives=2 * k + offset,
                    messages_after_reset=4 * k,
                    costs=k_costs,
                    replay_history_after=False,
                ),
                seed=seed,
            )
            calls[f"attacked_o{offset}"] = TaskCall(
                scenario="receiver_reset",
                params=dict(
                    protected=True,
                    k=k,
                    reset_after_receives=2 * k + offset,
                    messages_after_reset=0,
                    costs=k_costs,
                    replay_history_after=True,
                ),
                seed=seed,
            )
        points.append(SweepPoint(axis={"k_q": k}, calls=calls))

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        k = axis["k_q"]
        max_discarded = -1
        total_injected = 0
        total_replays = 0
        all_converged = True
        for role, m in metrics.items():
            if role.startswith("clean_"):
                max_discarded = max(max_discarded, m["fresh_discarded"])
                all_converged = all_converged and m["converged"]
            else:
                total_injected += m["adversary_injections"]
                total_replays += m["replays_accepted"]
        bound = discarded_fresh_bound(k)
        return dict(
            k_q=k,
            max_fresh_discarded=max_discarded,
            bound_2k=bound,
            within_bound=max_discarded <= bound,
            replays_injected=total_injected,
            replays_accepted=total_replays,
            converged=all_converged,
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "claim (ii) shape: worst-case discards grow linearly in Kq under "
            "2Kq; full-history replay at wake-up is rejected wholesale"
        ]

    return SweepSpec(
        experiment_id="E4",
        title="fresh messages discarded after a receiver reset vs Kq",
        paper_artifact="Section 5 claim (ii): discards <= 2Kq, replays = 0",
        columns=[
            "k_q",
            "max_fresh_discarded",
            "bound_2k",
            "within_bound",
            "replays_injected",
            "replays_accepted",
            "converged",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
