"""E14 (extension) — how often does the loss hole actually bite?

The model checker proved (E8, `repro.verify`) that channel loss before a
receiver reset can defeat SAVE/FETCH's no-replay guarantee: a loss burst
makes one received message advance the right edge by more than ``2Kq``
past the committed checkpoint, and a reset landing inside that
checkpoint's save leaves the wake-up leap short.

This experiment quantifies the exposure under Gilbert-Elliott bursty
loss of increasing severity (see
:func:`repro.workloads.scenarios.run_loss_hole_scenario`):

* a **vulnerable window** exists whenever a background SAVE starts whose
  value exceeds the committed checkpoint by more than ``2Kq`` (the leap
  cannot cover a reset during that save);
* the fault injector strikes the receiver exactly there (worst case),
  and the adversary replays the exposed range at wake-up (the optimal
  strategy from E8);
* the same trigger is run against the write-ahead ceiling variant.

Expected shape: vulnerable windows appear once mean burst length
approaches ``2Kq`` and SAVE/FETCH then admits replays; the ceiling
variant, under the identical trigger and attack, admits none.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    burst_levels: list[float] | None = None,
    seeds: int = 8,
    k: int = 25,
    costs: CostModel = PAPER_COSTS,
) -> SweepSpec:
    """Declare the loss-burst severity x seeds sweep for both variants."""
    if burst_levels is None:
        burst_levels = [0.0, 0.005, 0.02, 0.05]

    points = []
    for burst in burst_levels:
        calls: dict[str, TaskCall] = {}
        for seed in range(seeds):
            for role_prefix, variant in (("sf", "savefetch"), ("ceil", "ceiling")):
                calls[f"{role_prefix}{seed}"] = TaskCall(
                    scenario="loss_hole",
                    params=dict(variant=variant, burst_g2b=burst, k=k, costs=costs),
                    seed=seed,
                )
        points.append(SweepPoint(axis={"burst_g2b": burst}, calls=calls))

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        windows = sf_hits = sf_total = ceil_hits = 0
        for role, m in metrics.items():
            if role.startswith("sf"):
                windows += 1 if m["vulnerable_window"] else 0
                sf_hits += 1 if m["replays_accepted"] else 0
                sf_total += m["replays_accepted"]
            else:
                ceil_hits += 1 if m["replays_accepted"] else 0
        return dict(
            burst_g2b=axis["burst_g2b"],
            vulnerable_windows=windows,
            sf_runs_with_replays=sf_hits,
            sf_replays_total=sf_total,
            ceiling_runs_with_replays=ceil_hits,
            runs=seeds,
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "a vulnerable window = a checkpoint save starting more than 2Kq "
            "ahead of the committed value (mean loss-burst length ~ 67 "
            "messages vs 2Kq = 50 here); when one exists and the reset lands "
            "inside it, SAVE/FETCH admits the replayed range — the ceiling "
            "variant admits none under the identical trigger and attack"
        ]

    return SweepSpec(
        experiment_id="E14",
        title="replay exposure under bursty loss: SAVE/FETCH vs ceiling",
        paper_artifact="extension: empirical exposure of the loss-hole "
        "counterexample found by model checking (DESIGN.md section 7)",
        columns=[
            "burst_g2b",
            "vulnerable_windows",
            "sf_runs_with_replays",
            "sf_replays_total",
            "ceiling_runs_with_replays",
            "runs",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
