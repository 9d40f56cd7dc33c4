"""E11 — Section 4's second-reset hazard and the recovery-design ablation.

The paper motivates two wake-up design points:

* the **leap number must be 2K** ("This leap number must be large enough
  to ensure that ... the resulting new sequence number is larger than all
  previously used sequence numbers");
* the reloaded-and-leaped value must be **SAVEd synchronously before
  use** ("another reset can occur to the same computer that just waked up
  and has not yet executed the first SAVE ... those sequence numbers that
  have been used before the second reset occurs will be reused").

This experiment ablates both, under a double-reset fault: the second
reset strikes while the sender is already recovering from the first (see
:func:`repro.workloads.scenarios.run_recovery_ablation_scenario`).
Expected: the paper's configuration survives (no reuse, no replay
accepted); ``leap 1K`` reuses numbers when the first reset lands during
an in-flight save; ``leap 0`` reuses massively; ``skip wake save``
survives a single reset but reuses under the double reset — exactly the
hazard the synchronous SAVE exists to close.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS

#: The ablated configurations: (label, leap_factor, skip_wake_save).
VARIANTS: list[tuple[str, int, bool]] = [
    ("paper (leap 2K, wake save)", 2, False),
    ("leap 1K", 1, False),
    ("leap 0", 0, False),
    ("skip wake save", 2, True),
]


def sweep(
    k: int = 25,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the leap-factor / wake-save ablation sweep."""
    points = [
        SweepPoint(
            axis={"variant": label, "double_reset": double_reset},
            calls={"run": TaskCall(
                scenario="recovery_ablation",
                params=dict(
                    leap_factor=leap,
                    skip_wake_save=skip,
                    double_reset=double_reset,
                    k=k,
                    costs=costs,
                ),
                seed=seed,
            )},
        )
        for label, leap, skip in VARIANTS
        for double_reset in (False, True)
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        return dict(
            variant=axis["variant"],
            double_reset=axis["double_reset"],
            resets=m["resets"],
            reuse_events=m["reuse_events"],
            min_lost=m["min_lost"],
            replays_accepted=m["replays_accepted"],
            safe=m["safe"],
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "negative min_lost = sequence numbers reused after a reset (the "
            "failure both design points exist to prevent); the paper's "
            "configuration is the only one safe under both fault patterns"
        ]

    return SweepSpec(
        experiment_id="E11",
        title="recovery-design ablation under single and double resets",
        paper_artifact="Section 4: the 2K leap and the synchronous wake SAVE",
        columns=[
            "variant",
            "double_reset",
            "resets",
            "reuse_events",
            "min_lost",
            "replays_accepted",
            "safe",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
