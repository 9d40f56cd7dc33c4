"""Tests for the named scenarios (each returns one metrics dict)."""

import pytest

from repro.workloads.scenarios import (
    SCENARIOS,
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
