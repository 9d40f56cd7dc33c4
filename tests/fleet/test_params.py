"""Tests for the JSON param codec: scenario kwargs round-trip through
campaign specs, the result store, and pool workers."""

import json

import pytest

from repro.faults import GatewayCrash, RollingRestart
from repro.fleet.runner import execute_task
from repro.fleet.spec import (
    COSTMODEL_TAG,
    FAULT_TAG,
    CampaignSpec,
    FleetTask,
    ScenarioGrid,
    decode_param_value,
    decode_params,
    encode_params,
)
from repro.ipsec.costs import PAPER_COSTS, CostModel


class TestCodec:
    def test_costmodel_roundtrip(self):
        costs = CostModel(t_save=1e-3, t_send=2e-6)
        encoded = encode_params({"k": 25, "costs": costs})
        assert set(encoded["costs"]) == {COSTMODEL_TAG}
        json.dumps(encoded)  # JSON-safe as-is
        decoded = decode_params(json.loads(json.dumps(encoded)))
        assert decoded["costs"] == costs
        assert decoded["k"] == 25

    def test_tuples_become_lists(self):
        encoded = encode_params({"xs": (1, 2, 3)})
        assert encoded["xs"] == [1, 2, 3]

    def test_plain_values_pass_through(self):
        params = {"a": 1, "b": 0.5, "c": "s", "d": None, "e": True}
        assert decode_params(encode_params(params)) == params

    def test_nested_costmodel_in_list(self):
        pair = [CostModel(), CostModel(t_save=1e-3)]
        decoded = decode_params(encode_params({"costs_list": pair}))
        assert decoded["costs_list"] == pair

    def test_nested_costmodel_in_dict(self):
        nested = {"phases": {"warm": CostModel(t_save=1e-3), "n": 3}}
        encoded = encode_params(nested)
        json.dumps(encoded)  # must not leak a raw CostModel
        assert decode_params(json.loads(json.dumps(encoded))) == nested


class TestCampaignSpecWithCostOverrides:
    def test_grid_axis_of_cost_models_expands_json_safe(self):
        spec = CampaignSpec(
            name="costed",
            grids=(ScenarioGrid(
                scenario="sender_reset",
                params={
                    "k": 25,
                    "reset_after_sends": 30,
                    "messages_after_reset": 10,
                    "costs": [PAPER_COSTS, CostModel(t_save=1e-3)],
                },
            ),),
        )
        tasks = spec.tasks()
        assert len(tasks) == 2
        for task in tasks:
            json.dumps(task.params)

    def test_spec_json_roundtrip_preserves_cost_axis(self):
        spec = CampaignSpec(
            name="costed",
            grids=(ScenarioGrid(
                scenario="sender_reset",
                params={
                    "k": 25,
                    "reset_after_sends": 30,
                    "messages_after_reset": 10,
                    "costs": [CostModel(t_save=1e-3)],
                },
            ),),
        )
        reloaded = CampaignSpec.from_json(spec.to_json())
        assert [t.to_dict() for t in reloaded.tasks()] == [
            t.to_dict() for t in spec.tasks()
        ]

    def test_execute_task_decodes_cost_override(self):
        # A huge t_save makes the save span enormous relative to k, which
        # only matters if the override actually reaches the scenario.
        slow_save = CostModel(t_save=100 * 25 * PAPER_COSTS.t_send)
        task = FleetTask(
            task_id="t0",
            scenario="sender_reset",
            params=encode_params(dict(
                k=25, reset_after_sends=60, messages_after_reset=30,
                costs=slow_save,
            )),
            seed=0,
        )
        record = execute_task(task)
        assert record.status == "ok", record.error
        # With the save still in flight at reset time, FETCH returns the
        # previous checkpoint: the gap exceeds k (impossible under the
        # paper's constants, where the save commits in 25 messages).
        assert record.metrics["sender_reset_records"][0]["save_in_flight"]


class TestDictScenarios:
    def test_execute_task_records_dict_metrics(self):
        task = FleetTask(
            task_id="d0",
            scenario="dpd",
            params={"mechanism": "heartbeat", "cadence": 0.1, "rtt": 0.01,
                    "reset_at": 0.5},
            seed=0,
        )
        record = execute_task(task)
        assert record.status == "ok", record.error
        assert record.metrics["detected"] is True


class TestGatewayFaultCodec:
    def test_fault_roundtrip_is_tagged_and_json_safe(self):
        fault = GatewayCrash(at=0.002, down_time=0.0002)
        encoded = encode_params({"n_sas": 4, "fault": fault})
        assert set(encoded["fault"]) == {FAULT_TAG}
        decoded = decode_params(json.loads(json.dumps(encoded)))
        assert decoded["fault"] == fault
        assert decode_params(encode_params({
            "fault": RollingRestart(at=0.01, stagger=0.001)
        }))["fault"] == RollingRestart(at=0.01, stagger=0.001)

    def test_gateway_spec_json_roundtrip_preserves_fault(self):
        spec = CampaignSpec(
            name="gw",
            grids=(ScenarioGrid(
                scenario="gateway_crash",
                params={
                    "n_sas": [2, 4],
                    "fault": GatewayCrash(after_sends=50, down_time=0.0002),
                    "crash_after_sends": 50,
                    "messages_after_reset": 50,
                },
            ),),
        )
        reloaded = CampaignSpec.from_json(spec.to_json())
        assert reloaded.tasks() == spec.tasks()

    def test_execute_task_applies_fault_from_json_params(self):
        fault = GatewayCrash(at=0.0008, down_time=0.0002)
        task = FleetTask(
            task_id="gw0",
            scenario="gateway_crash",
            params=encode_params({
                "n_sas": 2,
                "fault": fault,
                "crash_after_sends": 50,
                "messages_after_reset": 50,
            }),
            seed=0,
        )
        record = execute_task(task)
        assert record.status == "ok", record.error
        assert record.metrics["gateway_crashes"] == 1
        assert record.metrics["converged"] is True


def grid_spec(fault_param):
    return CampaignSpec.from_dict({
        "name": "tags",
        "grids": [{
            "scenario": "gateway_crash",
            "params": {"n_sas": 2, "fault": fault_param},
        }],
    })


class TestBadTagsFailAtSpecLoad:
    """A misspelt, retired or malformed tagged param must fail while the
    spec is validated, not decode to a plain dict that fails every task."""

    @pytest.mark.parametrize("tag", [
        "__gatewayfualt__", "__costmodle__", "__gatewayfault__", "__pathfault__",
    ])
    def test_unknown_dunder_tag_is_rejected(self, tag):
        with pytest.raises(ValueError, match="unknown param tag"):
            decode_param_value({tag: {"kind": "crash", "at": 0.001}})
        with pytest.raises(ValueError, match="parameter 'fault'"):
            grid_spec({tag: {"kind": "crash", "at": 0.001}}).validate_scenarios()

    def test_malformed_fault_is_rejected(self):
        with pytest.raises(ValueError, match="exactly one trigger"):
            grid_spec({FAULT_TAG: {"kind": "crash"}}).validate_scenarios()

    def test_plain_dicts_still_decode(self):
        value = {"__note": 1, "nested": {"x": [1, 2]}}
        assert decode_param_value(value) == value
        assert decode_param_value({"a": 1, "__b__": 2}) == {"a": 1, "__b__": 2}
