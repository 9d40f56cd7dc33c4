"""E8 — Section 5's third case: both endpoints reset.

Three stories:

1. **Simultaneous dual reset, SAVE/FETCH** — the case the paper calls
   "straightforward to verify": with the window-jump adversary active,
   expected zero replays accepted and convergence.
2. **Simultaneous dual reset, unprotected** — the Section 3 attack: the
   adversary replays the highest recorded sequence number ``z`` after q's
   cold restart, shifting q's right edge above p's restarted counter so
   "all fresh messages ... between s and z will be ... discarded".
3. **Staggered dual reset, SAVE/FETCH** — the boundary this
   reproduction's model checker discovered (see :mod:`repro.core.ceiling`):
   p resets and leaps by ``2Kp``; the first post-leap message jumps q's
   right edge by more than ``Kq``; if q is then reset while checkpointing
   that jump, FETCH under-reads and a replay of the jump message is
   accepted.  Requires ``Kp > Kq``; the sweep targets the reset inside
   the vulnerable save (see
   :func:`repro.workloads.scenarios.run_staggered_reset_scenario`) and
   confirms the ceiling variant of the receiver closes the hole.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    k: int = 25,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare all dual-reset cases; see the module docstring."""
    points = [
        SweepPoint(
            axis={"case": "simultaneous", "protocol": label},
            calls={"run": TaskCall(
                scenario="dual_reset",
                params=dict(
                    protected=protected,
                    k=k,
                    reset_after_sends=20 * k,
                    messages_after_reset=20 * k,
                    costs=costs,
                    window_jump_attack=True,
                ),
                seed=seed,
            )},
        )
        for protected, label in [(True, "save/fetch"), (False, "unprotected")]
    ] + [
        SweepPoint(
            axis={"case": "staggered-vulnerable", "protocol": variant},
            calls={"run": TaskCall(
                scenario="staggered_reset",
                params=dict(variant=variant, k_p=4 * k, k_q=k, costs=costs),
                seed=seed,
            )},
        )
        for variant in ("savefetch", "ceiling")
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        if axis["case"] == "simultaneous":
            # Converged means: no replay slipped in and the collateral is
            # within the Section 5 budget (the unprotected pair fails the
            # second clause by orders of magnitude).
            converged = (
                m["replays_accepted"] == 0 and m["fresh_discarded"] <= 2 * k
            )
        else:
            converged = m["replays_accepted"] == 0
        return dict(
            case=axis["case"],
            protocol=axis["protocol"],
            replays_accepted=m["replays_accepted"],
            fresh_discarded=m["fresh_discarded"],
            converged=converged,
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "simultaneous dual reset: SAVE/FETCH rejects the window-jump "
            "replay; unprotected is desynchronised by it (fresh messages "
            "discarded en masse)",
            "staggered-vulnerable: SAVE/FETCH accepts a replay when the "
            "receiver reset lands inside the checkpoint of the post-leap "
            "jump (the boundary found by exhaustive model checking; outside "
            "the paper's Fig. 2 hypothesis of dense arrival); the write-ahead "
            "ceiling variant accepts none",
        ]

    return SweepSpec(
        experiment_id="E8",
        title="dual resets: simultaneous, attacked, and staggered",
        paper_artifact="Section 5 third case + Section 3 window-jump attack",
        columns=[
            "case",
            "protocol",
            "replays_accepted",
            "fresh_discarded",
            "converged",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
