"""End-to-end tests for the netpath scenarios and the rekey storm."""

from __future__ import annotations

import json

import pytest

from repro.fleet.runner import execute_task
from repro.fleet.spec import FleetTask, encode_params
from repro.workloads.scenarios import (
    SCENARIOS,
    run_mobile_handover_scenario,
    run_nat_rebinding_scenario,
    run_path_flap_scenario,
    run_rekey_storm_scenario,
)

SMALL = dict(rebind_after_sends=80, messages_after_rebind=80)


class TestRegistry:
    def test_netpath_scenarios_registered(self):
        assert {"nat_rebinding", "path_flap", "mobile_handover",
                "rekey_storm"} <= set(SCENARIOS)


class TestNatRebindingScenario:
    def test_rebind_on_valid_converges_with_one_rebind(self):
        result = run_nat_rebinding_scenario(**SMALL)
        assert result["converged"]
        assert result["replays_accepted"] == 0
        assert result["nat"]["rebinds"] == 1
        assert result["nat"]["binding"] == "nat:b"
        # The full stream was delivered despite the rebinding.
        assert result["delivered_uids"] == 160

    def test_strict_policy_kills_the_tunnel(self):
        result = run_nat_rebinding_scenario(policy="strict", **SMALL)
        nat = result["nat"]
        assert nat["rebinds"] == 0 and nat["binding"] == "nat:a"
        assert nat["rejected"] > 0
        assert result["delivered_uids"] == 80  # pre-rebinding only
        assert result["replays_accepted"] == 0

    def test_replayed_old_binding_history_is_rejected(self):
        result = run_nat_rebinding_scenario(**SMALL)
        assert result["adversary_injections"] > 0
        assert result["replays_accepted"] == 0

    def test_reset_during_rebinding_stays_safe(self):
        result = run_nat_rebinding_scenario(reset_schedule="during", **SMALL)
        assert result["sender_resets"] == 1
        assert result["replays_accepted"] == 0
        assert result["converged"]

    def test_unknown_reset_schedule_rejected(self):
        with pytest.raises(ValueError, match="reset_schedule"):
            run_nat_rebinding_scenario(reset_schedule="sometime", **SMALL)

    def test_deterministic_across_runs(self):
        first = run_nat_rebinding_scenario(**SMALL)
        second = run_nat_rebinding_scenario(**SMALL)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestPathFlapScenario:
    def test_windows_blackhole_traffic(self):
        result = run_path_flap_scenario(messages=300, flap_after_sends=80)
        assert result["blackholed"] > 0
        assert result["never_arrived"] == result["blackholed"]
        assert result["replays_accepted"] == 0

    def test_reset_during_a_dark_window(self):
        result = run_path_flap_scenario(
            messages=300, flap_after_sends=80, reset_schedule="during"
        )
        assert result["sender_resets"] == 1
        # Recovered through the flap: the reset resolved to a resumed
        # sequence number, which its lost count needs.
        assert len(result["lost_seqnums_per_reset"]) == 1
        assert result["replays_accepted"] == 0


class TestMobileHandoverScenario:
    def test_handover_composes_all_three_faults(self):
        result = run_mobile_handover_scenario(
            handover_after_sends=80, messages_after_handover=80
        )
        assert result["blackholed"] > 0  # the association gap
        assert result["regime_shifts"] == 1  # the visited network
        assert result["nat"]["rebinds"] == 1  # the new binding
        assert result["replays_accepted"] == 0

    def test_runs_through_the_fleet_worker(self):
        task = FleetTask(
            task_id="t0",
            scenario="mobile_handover",
            params=encode_params(dict(
                handover_after_sends=60, messages_after_handover=60,
            )),
            seed=3,
        )
        record = execute_task(task)
        assert record.status == "ok", record.error
        assert record.metrics["replays_accepted"] == 0
        assert record.metrics["nat"]["rebinds"] == 1


class TestRekeyStormScenario:
    def test_storm_beats_sequential_but_pays_cpu_contention(self):
        metrics = run_rekey_storm_scenario(n_sas=4)
        assert metrics["storm_speedup"] > 1.0  # RTTs overlap
        assert metrics["cpu_max_wait_s"] > 0  # but crypto serialized
        assert metrics["rekey_storm_time_s"] < metrics["rekey_sequential_time_s"]
        assert metrics["savefetch_time_s"] < metrics["rekey_storm_time_s"]
        assert metrics["messages"] == 4 * 9  # 9 ISAKMP messages per SA

    def test_uncontended_ablation_is_faster(self):
        contended = run_rekey_storm_scenario(n_sas=4)
        free = run_rekey_storm_scenario(n_sas=4, contended=False)
        assert free["rekey_storm_time_s"] < contended["rekey_storm_time_s"]
        assert free["cpu_max_wait_s"] == 0.0

    def test_deterministic_and_json_safe(self):
        first = run_rekey_storm_scenario(n_sas=2, seed=5)
        second = run_rekey_storm_scenario(n_sas=2, seed=5)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
