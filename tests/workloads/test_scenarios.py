"""Tests for the named scenarios (each returns one metrics dict) and
the fault-story runner most of them share."""

import contextlib

import pytest

from repro.core.protocol import build_protocol
from repro.faults import (
    GatewayCrash,
    NatRebinding,
    PathFlap,
    RegimeShift,
    Replay,
    Reset,
    RollingRestart,
    SAChurn,
)
from repro.gateway import Gateway
from repro.ipsec.costs import PAPER_COSTS
from repro.net.delay import FixedDelay
from repro.netpath import PathPhase
from repro.obs.hub import MetricsHub, use_hub
from repro.sim.trace import NULL_TRACE
from repro.workloads.scenarios import (
    SCENARIOS,
    _run_story,
    _sends,
    get_scenario,
    run_dual_reset_scenario,
    run_loss_reset_scenario,
    run_receiver_reset_scenario,
    run_sender_reset_scenario,
)


class TestSenderResetScenario:
    def test_protected_converges(self):
        result = run_sender_reset_scenario(
            protected=True, k=25, reset_after_sends=100, messages_after_reset=100
        )
        assert result["converged"], result["bound_violations"]
        assert result["sender_resets"] == 1
        assert result["fresh_discarded"] == 0

    def test_reset_placement_exact(self):
        result = run_sender_reset_scenario(
            protected=True, k=25, reset_after_sends=137, messages_after_reset=50
        )
        assert result["sender_reset_records"][0]["last_used_seq"] == 137

    def test_unprotected_discards_fresh(self):
        result = run_sender_reset_scenario(
            protected=False, k=25, reset_after_sends=200, messages_after_reset=150
        )
        assert result["fresh_discarded"] >= 150

    def test_ablated_leap_flagged(self):
        result = run_sender_reset_scenario(
            protected=True, k=25, reset_after_sends=100, messages_after_reset=100,
            leap_factor=0,
        )
        assert not result["converged"]


class TestReceiverResetScenario:
    def test_protected_rejects_history_replay(self):
        result = run_receiver_reset_scenario(
            protected=True,
            k=25,
            reset_after_receives=150,
            messages_after_reset=0,
            replay_history_after=True,
        )
        assert result["adversary_injections"] >= 150
        assert result["replays_accepted"] == 0

    def test_unprotected_accepts_history_replay(self):
        result = run_receiver_reset_scenario(
            protected=False,
            k=25,
            reset_after_receives=150,
            messages_after_reset=0,
            replay_history_after=True,
        )
        assert result["replays_accepted"] >= 150

    def test_discards_bounded(self):
        result = run_receiver_reset_scenario(
            protected=True, k=25, reset_after_receives=150, messages_after_reset=200
        )
        assert result["fresh_discarded"] <= 50


class TestDualResetScenario:
    def test_protected_survives_window_jump(self):
        result = run_dual_reset_scenario(
            protected=True, k=25, reset_after_sends=200, messages_after_reset=200
        )
        assert result["replays_accepted"] == 0
        assert result["fresh_discarded"] <= 50

    def test_unprotected_desynchronised_by_window_jump(self):
        result = run_dual_reset_scenario(
            protected=False, k=25, reset_after_sends=300, messages_after_reset=250
        )
        assert result["fresh_discarded"] > 100

    def test_stagger_parameter(self):
        result = run_dual_reset_scenario(
            protected=True,
            k=25,
            reset_after_sends=200,
            stagger=0.001,
            messages_after_reset=200,
        )
        assert result["sender_resets"] == 1
        assert result["receiver_resets"] == 1


class TestLossResetScenario:
    def test_protected_pair_survives_loss_plus_reset(self):
        result = run_loss_reset_scenario(
            k=25, loss_rate=0.05, reset_after_sends=60,
            messages_after_reset=60, seed=9,
        )
        assert result["replays_accepted"] == 0
        assert result["sender_resets"] == 1
        # Outside the lossless hypothesis no Section 5 bound is checked.
        assert result["bound_violations"] == []

    def test_zero_loss_matches_plain_sender_reset_deliveries(self):
        lossless = run_loss_reset_scenario(
            loss_rate=0.0, reset_after_sends=60, messages_after_reset=60, seed=4,
        )
        assert lossless["never_arrived"] == 0

    def test_deterministic_given_seed(self):
        kwargs = dict(loss_rate=0.1, reset_after_sends=50,
                      messages_after_reset=50, seed=21)
        a = run_loss_reset_scenario(**kwargs)
        b = run_loss_reset_scenario(**kwargs)
        assert a["never_arrived"] == b["never_arrived"]
        assert a["time_to_converge"] == b["time_to_converge"]


class TestScenarioRegistry:
    def test_registry_names_are_stable(self):
        assert set(SCENARIOS) == {
            "sender_reset", "receiver_reset", "dual_reset", "loss_reset",
            "reorder", "rekey", "staggered_reset", "prolonged_reset",
            "recovery_ablation", "reset_notice", "dpd", "save_policy",
            "loss_hole", "gateway_crash", "rolling_restart", "sa_churn",
            "nat_rebinding", "path_flap", "mobile_handover", "rekey_storm",
        }

    def test_every_run_callable_is_registered(self):
        # Acceptance invariant: every run_* scenario in the module is
        # reachable by name through the registry.
        import repro.workloads.scenarios as scenarios_module

        run_callables = {
            obj for name, obj in vars(scenarios_module).items()
            if name.startswith("run_") and name.endswith("_scenario")
        }
        assert run_callables == set(SCENARIOS.values())

    def test_get_scenario_returns_the_callable(self):
        assert get_scenario("sender_reset") is run_sender_reset_scenario

    def test_unknown_name_lists_known_scenarios(self):
        with pytest.raises(KeyError, match="known scenarios: dpd, dual_reset"):
            get_scenario("bogus")


# ----------------------------------------------------------------------
# The fault-story runner
# ----------------------------------------------------------------------
K, ATTEMPTS = 25, 120
T_SEND, T_SAVE = PAPER_COSTS.t_send, PAPER_COSTS.t_save

#: One fault of every pair kind, each striking mid-stream.
PAIR_FAULTS = {
    "sender_reset": Reset(after_sends=60, down_time=0.0002),
    "receiver_reset": Reset(side="receiver", after_sends=60, down_time=0.0002),
    "both_reset": Reset(
        side="both", after_sends=60, down_time=0.0002, stagger=0.0001
    ),
    "flap": PathFlap(after_sends=60, down_time=0.0002, up_time=0.0001, cycles=2),
    "regime_shift": RegimeShift(
        after_sends=60, phase=PathPhase("slow", delay=FixedDelay(20e-6))
    ),
    "nat_rebinding": NatRebinding(after_sends=60, new_address="nat:b"),
    "replay": Replay(after_sends=60, rate=1.0 / PAPER_COSTS.t_recv),
}

#: One fault of every gateway kind.
GATEWAY_FAULTS = {
    "crash": GatewayCrash(after_sends=60),
    "rolling_restart": RollingRestart(after_sends=60, stagger=0.0003),
    "sa_churn": SAChurn(at=0.0001, interval=0.0001, cycles=2, messages=60),
}


def pair():
    return build_protocol(trace=NULL_TRACE, with_adversary=True)


def slack(outage: float) -> int:
    return int(outage / T_SEND) + 10 * K


class TestStreamSizingRule:
    def test_no_fault_streams_exactly_the_attempts(self):
        assert _sends(pair(), [], ATTEMPTS, K, PAPER_COSTS) == ATTEMPTS

    @pytest.mark.parametrize("name, outage", [
        ("sender_reset", 2 * 0.0002),
        ("both_reset", 2 * (0.0002 + 0.0001)),
    ])
    def test_a_sender_side_reset_adds_its_outage(self, name, outage):
        sends = _sends(pair(), [PAIR_FAULTS[name]], ATTEMPTS, K, PAPER_COSTS)
        assert sends == ATTEMPTS + slack(outage)

    def test_a_gateway_crash_adds_its_outage_and_the_store_queue(self):
        gateway = Gateway(n_sas=2)
        queue = gateway.store.fetch_cost + gateway.store.save_cost  # 1 extra SA
        # down_time=None is 2 * t_save, as the fault itself reads it.
        assert _sends(
            gateway, [GATEWAY_FAULTS["crash"]], ATTEMPTS, K, PAPER_COSTS
        ) == ATTEMPTS + slack(2 * (2 * T_SAVE) + queue)
        assert _sends(
            gateway, [GatewayCrash(at=0.001, down_time=0.001)], ATTEMPTS, K,
            PAPER_COSTS,
        ) == ATTEMPTS + slack(2 * 0.001 + queue)

    def test_a_rolling_restart_adds_its_wave(self):
        gateway = Gateway(n_sas=2)
        queue = gateway.store.fetch_cost + gateway.store.save_cost
        assert _sends(
            gateway, [GATEWAY_FAULTS["rolling_restart"]], ATTEMPTS, K, PAPER_COSTS
        ) == ATTEMPTS + slack(0.0003 + 2 * (2 * T_SAVE) + queue)

    @pytest.mark.parametrize("name", [
        "receiver_reset", "flap", "regime_shift", "nat_rebinding", "replay",
    ])
    def test_every_other_pair_kind_adds_nothing(self, name):
        # The sender keeps its clock through each: no tick is suppressed.
        sends = _sends(pair(), [PAIR_FAULTS[name]], ATTEMPTS, K, PAPER_COSTS)
        assert sends == ATTEMPTS

    def test_churn_adds_nothing(self):
        assert _sends(
            Gateway(n_sas=2), [GATEWAY_FAULTS["sa_churn"]], ATTEMPTS, K,
            PAPER_COSTS,
        ) == ATTEMPTS


def ambient(observed: bool):
    return use_hub(MetricsHub("drain")) if observed else contextlib.nullcontext()


class TestRunToDrain:
    @pytest.mark.parametrize("observed", [False, True], ids=["off", "hub"])
    @pytest.mark.parametrize("name", sorted(PAIR_FAULTS))
    def test_every_pair_story_drains(self, name, observed):
        with ambient(observed):
            harness = pair()
            _run_story(harness, [PAIR_FAULTS[name]], ATTEMPTS, K, PAPER_COSTS)
        assert (harness.sampler is not None) == observed
        assert harness.engine.pending_events == 0
        assert harness.sender.sent_total >= 60

    @pytest.mark.parametrize("observed", [False, True], ids=["off", "hub"])
    @pytest.mark.parametrize("name", sorted(GATEWAY_FAULTS))
    def test_every_gateway_story_drains(self, name, observed):
        with ambient(observed):
            gateway = Gateway(n_sas=2)
            _run_story(gateway, [GATEWAY_FAULTS[name]], ATTEMPTS, K, PAPER_COSTS)
        assert gateway.engine.pending_events == 0
        assert gateway.score().metrics()["converged"]

    def test_a_reorder_stage_is_flushed_once_drained(self):
        harness = build_protocol(
            trace=NULL_TRACE, reorder_degree=8, reorder_probability=0.2
        )
        _run_story(harness, [], ATTEMPTS, K, PAPER_COSTS)
        assert harness.reorder_stage.currently_held == 0
        assert harness.engine.pending_events == 0
        assert harness.receiver.delivered_total == ATTEMPTS


class TestScenarioInputs:
    @pytest.mark.parametrize("scenario, name", [
        ("sender_reset", "messages_after_reset"),
        ("receiver_reset", "messages_after_reset"),
        ("dual_reset", "messages_after_reset"),
        ("loss_reset", "messages_after_reset"),
        ("reorder", "messages"),
        ("nat_rebinding", "messages_after_rebind"),
        ("path_flap", "messages"),
        ("mobile_handover", "messages_after_handover"),
        ("gateway_crash", "messages_after_reset"),
        ("rolling_restart", "messages_after_reset"),
        ("sa_churn", "messages"),
    ])
    @pytest.mark.parametrize("value, error", [
        (-600, ValueError), (500.5, TypeError), (True, TypeError),
    ])
    def test_stream_counts_refuse_floats_bools_and_negatives(
        self, scenario, name, value, error
    ):
        # A negative count would send nothing, a float one message more,
        # and either session would still report converged.
        with pytest.raises(error, match=name):
            get_scenario(scenario)(**{name: value})

    @pytest.mark.parametrize("scenario, kwargs", [
        ("gateway_crash", {"down_time": 0.05, "fault": GatewayCrash(at=0.0008)}),
        ("rolling_restart", {"down_time": 0.001, "fault": RollingRestart(at=0.001)}),
        ("rolling_restart", {"stagger": 0.001, "fault": RollingRestart(at=0.001)}),
        ("sa_churn", {"churn_interval": 0.001, "fault": SAChurn(at=0.0005)}),
    ])
    def test_a_fault_override_takes_no_second_outage_value(self, scenario, kwargs):
        # The fault runs with its own outage, so a second value could
        # only size the stream for an outage that never happens.
        with pytest.raises(ValueError, match="fault override carries its own"):
            get_scenario(scenario)(n_sas=2, **kwargs)
