"""Pin every scenario's metrics, and the E15/E16 tables, byte for byte.

The fixture under ``golden/`` holds, per case, the JSON metrics a fleet
task records for one scenario call, plus the rows, columns and notes of
the E15 and E16 tables.  Each scenario runs at its defaults,
and again on every branch that arms a fault or a replay: reset
placements and staggers, replay strategies, gateway fault overrides and
the E16 reset schedules.  A refactor of how scenarios arm faults or
return results must leave every case equal, compared as canonical
sorted-key JSON.  The fixture records behaviour; it is never regenerated
to make a change pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import e15_gateway_convergence, e16_path_dynamics
from repro.faults import GatewayCrash, RollingRestart, SAChurn
from repro.fleet.runner import execute_task
from repro.fleet.spec import FleetTask
from repro.net.delay import FixedDelay
from repro.net.loss import BernoulliLoss
from repro.netpath import PathPhase, PathProfile
from repro.workloads.scenarios import SCENARIOS

GOLDEN_PATH = Path(__file__).parent / "golden" / "scenario_metrics.json"

#: Every registered scenario, run at its defaults.
DEFAULT_SCENARIOS = [
    "sender_reset", "receiver_reset", "dual_reset", "loss_reset", "reorder",
    "rekey", "staggered_reset", "prolonged_reset", "recovery_ablation",
    "reset_notice", "dpd", "save_policy", "loss_hole", "gateway_crash",
    "rolling_restart", "sa_churn", "nat_rebinding", "path_flap",
    "mobile_handover", "rekey_storm",
]

#: Non-default arguments: a shorter outage keeps ``prolonged_reset`` cheap.
DEFAULT_OVERRIDES = {
    "prolonged_reset": {"outage": 0.05, "keep_alive_timeout": 0.2},
}

#: A calm phase that ends before the reset, then a lossy one.
TWO_PHASE_PATH = PathProfile(phases=(
    PathPhase("calm", duration=0.0015, delay=FixedDelay(20e-6)),
    PathPhase("lossy", delay=FixedDelay(30e-6), loss=BernoulliLoss(0.02)),
))

#: case name -> (scenario, params, seed).
CASES: dict[str, tuple[str, dict, int]] = {
    **{
        f"{name}/defaults": (name, dict(DEFAULT_OVERRIDES.get(name, {})), 0)
        for name in DEFAULT_SCENARIOS
    },
    "sender_reset/two_phase_path": (
        "sender_reset", {"path": TWO_PHASE_PATH}, 0),
    "receiver_reset/replay_protected": (
        "receiver_reset", {"replay_history_after": True}, 0),
    "receiver_reset/replay_unprotected": (
        "receiver_reset", {"replay_history_after": True, "protected": False}, 0),
    "dual_reset/stagger": ("dual_reset", {"stagger": 0.001}, 0),
    "dual_reset/no_window_jump": (
        "dual_reset", {"window_jump_attack": False}, 0),
    "staggered_reset/ceiling": ("staggered_reset", {"variant": "ceiling"}, 0),
    "staggered_reset/unprotected": (
        "staggered_reset", {"variant": "unprotected"}, 0),
    "recovery_ablation/double_reset": (
        "recovery_ablation", {"double_reset": True}, 0),
    "recovery_ablation/double_reset_skip_wake_save": (
        "recovery_ablation", {"double_reset": True, "skip_wake_save": True}, 0),
    "loss_hole/ceiling_bursty": (
        "loss_hole", {"variant": "ceiling", "burst_g2b": 0.03}, 0),
    "loss_hole/bursty_seed2": ("loss_hole", {"burst_g2b": 0.03}, 2),
    "gateway_crash/receiver": ("gateway_crash", {"side": "receiver"}, 0),
    "gateway_crash/one_sa": ("gateway_crash", {"n_sas": 1}, 0),
    "gateway_crash/at_trigger": (
        "gateway_crash",
        {"fault": GatewayCrash(at=0.0008, down_time=0.0002)}, 0),
    "gateway_crash/long_down_time": (
        "gateway_crash",
        {"n_sas": 2, "fault": GatewayCrash(after_sends=60, down_time=0.05)}, 0),
    "rolling_restart/receiver": ("rolling_restart", {"side": "receiver"}, 0),
    "rolling_restart/at_trigger": (
        "rolling_restart",
        {"fault": RollingRestart(at=0.001, stagger=0.0003, down_time=0.0001)}, 0),
    "sa_churn/fault_override": (
        "sa_churn",
        {"fault": SAChurn(at=0.0005, interval=0.0005, cycles=2, messages=100)},
        0),
    "nat_rebinding/during": ("nat_rebinding", {"reset_schedule": "during"}, 0),
    "nat_rebinding/after": ("nat_rebinding", {"reset_schedule": "after"}, 0),
    "nat_rebinding/strict": ("nat_rebinding", {"policy": "strict"}, 0),
    "path_flap/during": ("path_flap", {"reset_schedule": "during"}, 0),
    "path_flap/after_one_cycle": (
        "path_flap", {"reset_schedule": "after", "cycles": 1}, 0),
    "mobile_handover/during": (
        "mobile_handover", {"reset_schedule": "during"}, 0),
    "mobile_handover/after": ("mobile_handover", {"reset_schedule": "after"}, 0),
    "mobile_handover/no_replay": (
        "mobile_handover", {"replay_old_binding": False}, 0),
}

#: table name -> the experiment call it pins.
TABLES = {
    "E15": lambda: e15_gateway_convergence.run(
        sa_counts=[1, 4], crash_after_sends=120, messages_after_reset=120
    ),
    "E16": lambda: e16_path_dynamics.run(scale=120),
}


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def case_metrics(name: str) -> dict:
    """The metrics one case records, through the fleet's task path."""
    scenario, params, seed = CASES[name]
    record = execute_task(FleetTask(
        task_id=name, scenario=scenario, params=params, seed=seed
    ))
    assert record.status == "ok", record.error
    return record.metrics


def table(name: str) -> dict:
    result = TABLES[name]()
    return {"columns": result.columns, "rows": result.rows, "notes": result.notes}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_every_registered_scenario_is_pinned():
    assert sorted(DEFAULT_SCENARIOS) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(golden, name):
    assert canonical(case_metrics(name)) == canonical(golden["cases"][name])


@pytest.mark.parametrize("name", sorted(TABLES))
def test_experiment_table_matches_golden(golden, name):
    assert canonical(table(name)) == canonical(golden["tables"][name])
