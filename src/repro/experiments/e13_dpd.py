"""E13 (supplementary) — dead-peer detection time vs probing parameters.

Not a paper table, but the load-bearing constant of two paper arguments:
the IETF remedy fires "once the reset is detected" (its total cost in E7
includes the detection delay) and the Section 6 recovery starts its
keep-alive clock at detection.  This experiment measures detection time
for the two cited IETF mechanisms — heartbeat probing and traffic-based
probing — over simulated links, sweeping the probe cadence (see
:func:`repro.workloads.scenarios.run_dpd_scenario`).

Expected shape: detection time ~ interval + max_misses * interval (plus a
timeout), linear in the probe cadence for both mechanisms; traffic-based
probing sends zero probes while the conversation is healthy.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall


def sweep(
    cadences: list[float] | None = None,
    rtt: float = 0.01,
    reset_at: float = 1.0,
) -> SweepSpec:
    """Declare the probe-cadence sweep for both DPD mechanisms."""
    if cadences is None:
        cadences = [0.1, 0.5, 2.0]

    points = [
        SweepPoint(
            axis={"mechanism": mechanism, "cadence_s": cadence},
            calls={"run": TaskCall(
                scenario="dpd",
                params=dict(
                    mechanism=mechanism,
                    cadence=cadence,
                    rtt=rtt,
                    reset_at=reset_at,
                ),
            )},
        )
        for mechanism in ("heartbeat", "traffic")
        for cadence in cadences
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        detection = m["detection_s"] if m["detection_s"] is not None else float("inf")
        return dict(
            mechanism=axis["mechanism"],
            cadence_s=axis["cadence_s"],
            detection_s=round(detection, 3),
            probes_while_healthy=m["probes_while_healthy"],
            detected=m["detected"],
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "detection ~ cadence x (1 + max_misses): tighter probing detects "
            "faster at the cost of probe traffic; the traffic-based mechanism "
            "sends no probes while the conversation is healthy (its "
            "probes_while_healthy counts only post-silence probing)"
        ]

    return SweepSpec(
        experiment_id="E13",
        title="dead-peer detection time vs probe cadence",
        paper_artifact="the detection-delay term of Sections 3 and 6 "
        "(IETF drafts [3] and [7])",
        columns=[
            "mechanism",
            "cadence_s",
            "detection_s",
            "probes_while_healthy",
            "detected",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
