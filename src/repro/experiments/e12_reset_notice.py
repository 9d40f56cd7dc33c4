"""E12 — Section 6's rejected strawman: the replayable "reset notice".

"One may be tempted to think about the possibility of requiring the reset
host to send its peer a special message saying 'I was reset; let us both
reset the sequence number to 1 ...'.  The problem with this approach is
that the special message can be replayed by an attacker at any time to
induce the receiver of this special message to reset its sequence
number."

The experiment runs the strawman through the paper's attack script (see
:func:`repro.workloads.scenarios.run_reset_notice_scenario`): phase one
*appears* to work — the genuine notice is honoured and fresh traffic
resumes; phase two replays the recorded notice, the receiver obediently
reopens its window, and the recorded history is accepted wholesale.

The SAVE/FETCH comparison row shows why the paper concludes persistent
memory is the only way: there *is* no trusted-on-receipt control message
to replay, and the same replay barrage is rejected entirely.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    pre_reset_messages: int = 500,
    post_reset_messages: int = 200,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the strawman attack plus the SAVE/FETCH comparison."""
    points = [
        SweepPoint(
            axis={"protocol": "reset-notice strawman"},
            calls={"run": TaskCall(
                scenario="reset_notice",
                params=dict(
                    pre_reset_messages=pre_reset_messages,
                    post_reset_messages=post_reset_messages,
                    costs=costs,
                ),
                seed=seed,
            )},
        ),
        # SAVE/FETCH under the same replay barrage (receiver at its most
        # vulnerable moment): nothing to honour, nothing accepted.
        SweepPoint(
            axis={"protocol": "save/fetch"},
            calls={"run": TaskCall(
                scenario="receiver_reset",
                params=dict(
                    protected=True,
                    reset_after_receives=pre_reset_messages,
                    messages_after_reset=0,
                    costs=costs,
                    replay_history_after=True,
                ),
                seed=seed,
            )},
        ),
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        if axis["protocol"] == "reset-notice strawman":
            return dict(
                protocol=axis["protocol"],
                notices_honoured=m["notices_honoured"],
                genuine_recovery_ok=m["genuine_notice_worked"],
                replays_accepted=m["replays_accepted"],
                broken_by_replay=bool(m["replays_accepted"]),
            )
        return dict(
            protocol=axis["protocol"],
            notices_honoured=0,
            genuine_recovery_ok=m["converged"],
            replays_accepted=m["replays_accepted"],
            broken_by_replay=m["replays_accepted"] > 0,
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "the strawman recovers from the genuine reset (its one notice is "
            "honoured) but any replay of that notice reopens the window and "
            "the recorded history pours in; SAVE/FETCH has no such message "
            "to replay — the paper's argument for persistent memory"
        ]

    return SweepSpec(
        experiment_id="E12",
        title='the "I was reset" notice: replayable by construction',
        paper_artifact="Section 6 concluding remarks (the rejected strawman)",
        columns=[
            "protocol",
            "notices_honoured",
            "genuine_recovery_ok",
            "replays_accepted",
            "broken_by_replay",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
