"""E7 — Section 3: the cost of the IETF remedy vs SAVE/FETCH.

"Reestablishing the entire IPsec SA is very expensive. It takes the
recomputation of most attributes ... and the renegotiation of all these
attributes using a secured connection. Moreover, a host may have multiple
SAs ... Requiring a host with multiple existing SAs to drop and
reestablish all the existing SAs because of a reset stands for a huge
amount of overhead."

The rekey side is *measured*, not estimated: every ISAKMP message of the
simplified main+quick handshake crosses a latency link, and every DH
exponentiation/signature burns simulated compute (Pentium-III-era
defaults).  The SAVE/FETCH side is one FETCH plus one synchronous SAVE
per SA — no network at all.

Expected shape: rekey recovery grows linearly in both the SA count and
the RTT; SAVE/FETCH is microseconds, flat in RTT; the speedup is 3-5
orders of magnitude and grows with both sweep axes.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS


def sweep(
    sa_counts: list[int] | None = None,
    rtts: list[float] | None = None,
    detection_delay: float = 0.0,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the SA count x RTT sweep over both recovery paths."""
    if sa_counts is None:
        sa_counts = [1, 4, 16, 64]
    if rtts is None:
        rtts = [0.001, 0.010, 0.050]

    points = [
        SweepPoint(
            axis={"n_sas": n_sas, "rtt": rtt},
            calls={"run": TaskCall(
                scenario="rekey",
                params=dict(
                    n_sas=n_sas,
                    rtt=rtt,
                    detection_delay=detection_delay,
                    costs=costs,
                ),
                seed=seed,
            )},
        )
        for n_sas in sa_counts
        for rtt in rtts
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        speedup = (
            m["rekey_time_s"] / m["savefetch_time_s"]
            if m["savefetch_time_s"] > 0
            else float("inf")
        )
        return dict(
            n_sas=axis["n_sas"],
            rtt_ms=axis["rtt"] * 1000,
            rekey_time_s=m["rekey_time_s"],
            rekey_messages=m["rekey_messages"],
            savefetch_time_s=m["savefetch_time_s"],
            speedup=round(speedup),
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        return [
            "rekey cost scales with n_sas (sequential renegotiations) and rtt "
            "(4.5 round trips per SA); SAVE/FETCH is local disk IO only, "
            "independent of rtt — the win grows with both axes"
        ]

    return SweepSpec(
        experiment_id="E7",
        title="reset recovery cost: IETF full rekey vs SAVE/FETCH",
        paper_artifact="Section 3's motivation for keeping the SA alive",
        columns=[
            "n_sas",
            "rtt_ms",
            "rekey_time_s",
            "rekey_messages",
            "savefetch_time_s",
            "speedup",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
