"""E16 — extension: convergence on time-varying paths.

The paper's claims hold on one fixed channel.  This experiment crosses
the netpath *phase patterns* — a flapping route (repeated blackhole
windows), a mobile handover (outage + regime shift + NAT rebinding at
one instant), and a bare NAT rebinding under each receiver policy —
with a *reset schedule*: no endpoint reset, a sender reset landing
**during** the path impairment, or one landing safely **after** it.
Every cell runs a protected SAVE/FETCH pair through the corresponding
``workloads.SCENARIOS`` entry.

Expected shape:

* ``replays`` stays 0 everywhere — the anti-replay window, not the
  address check, is the replay authority, and neither path loss nor a
  reset overlapping the impairment opens it.
* ``rebind_on_valid`` rows deliver the post-rebinding stream and record
  exactly one rebind; ``strict`` rows show the tunnel killed instead
  (``gate_rejected`` ~ the whole tail, deliveries collapse) — safe but
  unavailable, the trade the policy table exists to show.
* a ``during`` reset interleaves recovery with the impairment and
  still converges — the cost is availability, never safety.  (It can
  even *shrink* ``never_arrived`` versus ``after``: a sender silenced
  by its reset offers nothing into the dark windows, so fewer packets
  die on the path — the reset schedule moves loss between the
  blackhole and the suppressed-send columns, it never opens the
  window.)
"""

from __future__ import annotations

from typing import Any

from repro.experiments.sweep import SweepPoint, SweepSpec, TaskCall
from repro.ipsec.costs import CostModel, PAPER_COSTS

#: (pattern label, scenario registry name, extra scenario params).
PATTERNS: list[tuple[str, str, dict[str, Any]]] = [
    ("flap", "path_flap", {}),
    ("handover", "mobile_handover", {}),
    ("nat_valid", "nat_rebinding", {"policy": "rebind_on_valid"}),
    ("nat_strict", "nat_rebinding", {"policy": "strict"}),
]

#: The reset-schedule axis (see ``_schedule_reset`` in workloads).
RESET_SCHEDULES = ["none", "during", "after"]


def sweep(
    patterns: list[str] | None = None,
    reset_schedules: list[str] | None = None,
    scale: int = 300,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> SweepSpec:
    """Declare the phase-pattern x reset-schedule sweep.

    ``scale`` sets the per-phase traffic volume (sends before the
    impairment and after it), so the full table's cost is one knob.
    """
    selected = [
        entry for entry in PATTERNS if patterns is None or entry[0] in patterns
    ]
    schedules = reset_schedules if reset_schedules is not None else RESET_SCHEDULES

    def params_for(scenario: str, extra: dict[str, Any], schedule: str) -> dict[str, Any]:
        params: dict[str, Any] = dict(extra, reset_schedule=schedule, costs=costs)
        if scenario == "path_flap":
            params.update(messages=2 * scale, flap_after_sends=scale)
        elif scenario == "mobile_handover":
            params.update(
                handover_after_sends=scale, messages_after_handover=scale
            )
        else:  # nat_rebinding
            params.update(rebind_after_sends=scale, messages_after_rebind=scale)
        return params

    points = [
        SweepPoint(
            axis={"pattern": pattern, "reset": schedule, "scenario": scenario},
            calls={"run": TaskCall(
                scenario=scenario,
                params=params_for(scenario, extra, schedule),
                seed=seed,
            )},
        )
        for pattern, scenario, extra in selected
        for schedule in schedules
    ]

    def reduce_row(axis: dict[str, Any], metrics: dict[str, Any]) -> dict[str, Any]:
        m = metrics["run"]
        nat = m.get("nat", {})
        return dict(
            pattern=axis["pattern"],
            reset=axis["reset"],
            replays=m["replays_accepted"],
            delivered=m["delivered_uids"],
            discarded=m["fresh_discarded"],
            never_arrived=m["never_arrived"],
            blackholed=m.get("blackholed", 0),
            gate_rejected=nat.get("rejected", 0),
            rebinds=nat.get("rebinds", 0),
            resets=m["sender_resets"],
        )

    def notes(rows: list[dict[str, Any]]) -> list[str]:
        built = [
            "phase patterns: flap = repeated blackhole windows; handover = "
            "outage + regime shift + NAT rebinding at one instant; nat_* = "
            "bare rebinding under each receiver policy",
            "reset schedule: the sender reset lands during the impairment "
            "window or after the path settles",
        ]
        if all(row["replays"] == 0 for row in rows):
            built.append(
                "replays stayed 0 in every cell: the anti-replay window, not "
                "the address binding, is the replay authority on a moving path"
            )
        strict = [r for r in rows if r["pattern"] == "nat_strict"]
        if strict and all(r["gate_rejected"] > 0 for r in strict):
            built.append(
                "strict rebinding kills the tunnel after the NAT moves "
                "(the whole post-rebinding stream dies at the gate); "
                "rebind_on_valid keeps delivering with exactly one rebind"
            )
        return built

    return SweepSpec(
        experiment_id="E16",
        title="path dynamics: phase pattern x reset schedule",
        paper_artifact="extension: Section 5 claims on time-varying paths",
        columns=[
            "pattern", "reset", "replays", "delivered", "discarded",
            "never_arrived", "blackholed", "gate_rejected", "rebinds", "resets",
        ],
        points=points,
        reduce_row=reduce_row,
        notes=notes,
    )
