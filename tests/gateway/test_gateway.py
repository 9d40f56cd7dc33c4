"""Tests for the Gateway node: lifecycle, correlated faults, scoring."""

from __future__ import annotations

import pytest

from repro.faults import Fault, FaultEnv, GatewayCrash, RollingRestart, SAChurn
from repro.gateway import Gateway
from repro.ipsec.costs import PAPER_COSTS

T_SAVE = PAPER_COSTS.t_save
T_SEND = PAPER_COSTS.t_send


def run_crash_gateway(n_sas: int = 4, policy: str = "batched", **kwargs):
    gateway = Gateway(n_sas=n_sas, k=50, store_policy=policy, **kwargs)
    crash = GatewayCrash(after_sends=100, down_time=2 * T_SAVE)
    crash.apply(FaultEnv.of(gateway))
    gateway.start_traffic(count=400)
    gateway.run(until=500 * T_SEND + 20 * T_SAVE + n_sas * T_SAVE)
    return gateway


class TestConstruction:
    def test_builds_n_independent_pairs_on_one_engine(self):
        gateway = Gateway(n_sas=3)
        assert len(gateway.sas) == 3
        engines = {unit.harness.engine for unit in gateway.sas}
        assert engines == {gateway.engine}
        senders = {unit.harness.sender.name for unit in gateway.sas}
        assert senders == {"p0", "p1", "p2"}

    def test_protected_sas_share_the_store_device(self):
        gateway = Gateway(n_sas=3)
        stores = {unit.gateway_end.store.shared for unit in gateway.sas}
        assert stores == {gateway.store}

    def test_remote_side_keeps_private_stores(self):
        gateway = Gateway(n_sas=2)
        for unit in gateway.sas:
            assert not hasattr(unit.remote_end.store, "shared")

    def test_receiver_side_gateway(self):
        gateway = Gateway(n_sas=2, side="receiver")
        for unit in gateway.sas:
            assert unit.gateway_end is unit.harness.receiver
            assert unit.gateway_end.store.shared is gateway.store

    def test_default_k_follows_the_sizing_rule(self):
        assert Gateway(n_sas=1).k == 25
        assert Gateway(n_sas=4).k == 100  # serial scales with N
        assert Gateway(n_sas=16, store_policy="batched").k == 50
        assert Gateway(n_sas=16, store_policy="write_ahead").k == 100

    def test_default_k_keeps_the_guarantees_at_scale(self):
        gateway = Gateway(n_sas=16, store_policy="write_ahead")
        crash = GatewayCrash(after_sends=200, down_time=2 * T_SAVE)
        crash.apply(FaultEnv.of(gateway))
        gateway.start_traffic(count=600)
        gateway.run(until=0.01)
        report = gateway.score()
        assert report.converged, report.bound_violations
        assert min(report.sa_outcomes[0].report.lost_seqnums_per_reset) >= 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n_sas"):
            Gateway(n_sas=0)
        with pytest.raises(ValueError, match="unknown gateway side"):
            Gateway(n_sas=1, side="middle")
        with pytest.raises(ValueError, match="unknown store policy"):
            Gateway(n_sas=1, store_policy="mmap")

    @pytest.mark.parametrize("kwargs", [
        {"n_sas": 2.5}, {"n_sas": 2, "k": 25.7}, {"n_sas": 2, "w": 64.9},
    ], ids=["n_sas", "k", "w"])
    def test_count_arguments_are_not_truncated(self, kwargs):
        with pytest.raises(TypeError, match="must be int"):
            Gateway(**kwargs)

    def test_scenario_k_is_not_truncated(self):
        from repro.workloads.scenarios import run_gateway_crash_scenario

        with pytest.raises(TypeError, match="k must be int"):
            run_gateway_crash_scenario(n_sas=2, k=25.5)


class TestGatewayCrash:
    def test_crash_resets_every_sa_at_the_same_instant(self):
        gateway = run_crash_gateway(n_sas=4)
        reset_times = {
            unit.gateway_end.reset_records[0].reset_time
            for unit in gateway.sas
        }
        assert len(reset_times) == 1
        assert gateway.crash_times == [reset_times.pop()]
        assert gateway.store.crashes == 1

    def test_all_sas_recover_and_converge(self):
        gateway = run_crash_gateway(n_sas=4)
        report = gateway.score()
        assert report.converged
        assert report.replays_accepted == 0
        assert report.n_sas == 4
        assert report.gateway_crashes == 1

    def test_recovery_spread_reflects_fetch_storm(self):
        serial = run_crash_gateway(n_sas=4, policy="serial").score()
        solo = run_crash_gateway(n_sas=1, policy="serial").score()
        assert solo.recovery_spreads == [0.0]
        # Four SAs fetch back-to-back: the last resumes ~3 fetches later.
        assert serial.recovery_spreads[0] == pytest.approx(
            3 * PAPER_COSTS.t_fetch
        )

    def test_batched_policy_flattens_the_spread(self):
        serial = run_crash_gateway(n_sas=4, policy="serial").score()
        batched = run_crash_gateway(n_sas=4, policy="batched").score()
        assert batched.recovery_spreads[0] < serial.recovery_spreads[0]
        assert batched.store_stats["batched_saves"] > 0

    def test_receiver_side_crash_converges_with_queued_recovery(self):
        from repro.workloads.scenarios import run_gateway_crash_scenario

        metrics = run_gateway_crash_scenario(
            n_sas=4, side="receiver",
            crash_after_sends=150, messages_after_reset=150,
        )
        assert metrics["converged"]
        assert metrics["receiver_resets"] == 4
        assert metrics["sender_resets"] == 0
        assert max(metrics["recovery_spreads"]) > 0

    @pytest.mark.parametrize("down_for", [-1.0, float("nan"), float("inf")])
    def test_bad_down_for_is_refused_before_anything_happens(self, down_for):
        gateway = Gateway(n_sas=3, k=50)
        gateway.start_traffic(count=100)
        gateway.run(until=30 * T_SEND)
        with pytest.raises(ValueError, match="down_for"):
            gateway.crash(down_for=down_for)
        assert gateway.crash_times == []
        assert gateway.store.crashes == 0
        for unit in gateway.sas:
            assert unit.gateway_end.is_up and not unit.gateway_end.reset_records
        gateway.run()
        assert all(unit.harness.sender.sent_total == 100 for unit in gateway.sas)

    def test_at_time_trigger(self):
        gateway = Gateway(n_sas=2, k=50)
        GatewayCrash(at=0.001, down_time=2 * T_SAVE).apply(FaultEnv.of(gateway))
        gateway.start_traffic(count=500)
        gateway.run(until=0.004)
        assert gateway.crash_times == [0.001]

    def test_fault_override_with_long_outage_still_exercises_recovery(self):
        from repro.workloads.scenarios import run_gateway_crash_scenario

        # The override's 50ms outage dwarfs the scenario default
        # (2 * t_save = 200us); the stream must be sized by the fault's
        # outage, or the outage swallows every tick after the crash and
        # convergence goes untested.
        metrics = run_gateway_crash_scenario(
            n_sas=2,
            crash_after_sends=60,
            messages_after_reset=60,
            fault=GatewayCrash(after_sends=60, down_time=0.05),
        )
        assert metrics["gateway_crashes"] == 1
        # Recovery completed: the spread was measured, every SA's reset
        # resolved to a resumed sequence (lost_seqnums requires resume),
        # and traffic flowed after the outage.
        assert metrics["recovery_spreads"]
        assert len(metrics["lost_seqnums_per_reset"]) == 2
        assert metrics["delivered_uids"] > 2 * 60
        assert metrics["converged"]

    def test_trigger_must_be_exactly_one(self):
        # Checked at construction, before a fault can reach a fleet worker.
        with pytest.raises(ValueError, match="exactly one trigger"):
            GatewayCrash()
        with pytest.raises(ValueError, match="exactly one trigger"):
            GatewayCrash(at=0.1, after_sends=5)


class TestRollingRestart:
    def test_resets_are_staggered_not_correlated(self):
        gateway = Gateway(n_sas=3, k=75)
        stagger = 4 * T_SAVE
        wave = RollingRestart(at=0.001, stagger=stagger, down_time=T_SAVE)
        wave.apply(FaultEnv.of(gateway))
        gateway.start_traffic(count=800)
        gateway.run(until=0.006)
        times = [
            unit.gateway_end.reset_records[0].reset_time
            for unit in gateway.sas
        ]
        assert times == pytest.approx([0.001, 0.001 + stagger, 0.001 + 2 * stagger])
        assert gateway.store.crashes == 0  # the store stays up
        report = gateway.score()
        assert report.converged
        # The wave's recovery spread is measured; it carries the stagger
        # (minus whatever queueing hit the earlier SAs' recoveries).
        assert len(report.recovery_spreads) == 1
        assert report.recovery_spreads[0] > stagger


class TestSAChurn:
    def test_crash_aborts_churned_out_sas_queued_saves(self):
        gateway = Gateway(n_sas=2, k=50)
        gateway.start_traffic(count=100)
        gateway.run(until=55 * T_SEND)  # first background saves in flight
        retired = gateway.live_sas()[0]
        gateway.tear_down_sa(retired)
        retired_store = retired.gateway_end.store
        if not retired_store.save_in_flight:
            retired_store.begin_save(999)
        gateway.crash(down_for=2 * T_SAVE)
        assert not retired_store.save_in_flight
        committed_at_crash = retired_store.committed_value
        gateway.run(until=0.01)
        # The retired SA's queued write died with the device queue.
        assert retired_store.committed_value == committed_at_crash

    def test_cycles_retire_and_establish(self):
        gateway = Gateway(n_sas=2, k=75)
        churn = SAChurn(at=0.0005, interval=0.0005, cycles=2, messages=100)
        churn.apply(FaultEnv.of(gateway))
        gateway.start_traffic(count=200)
        gateway.run(until=0.004)
        assert gateway.churn_events == 2
        assert len(gateway.sas) == 4
        assert len(gateway.live_sas()) == 2
        retired = [unit for unit in gateway.sas if not unit.live]
        assert [unit.index for unit in retired] == [0, 1]
        assert all(unit.torn_down_at is not None for unit in retired)
        assert gateway.score().converged

    def test_churned_sa_uses_traffic_defaults_interval(self):
        gateway = Gateway(n_sas=1, k=75)
        gateway.start_traffic(count=50, interval=2 * T_SEND)
        gateway.engine.run(until=10 * T_SEND)
        created = gateway.churn(messages=30)
        gateway.run(until=0.01)
        assert created.traffic == {"count": 30, "interval": 2 * T_SEND}
        assert created.harness.sender.sent_total == 30


class TestFaultRoundTrip:
    def test_every_kind_round_trips(self):
        faults = [
            GatewayCrash(after_sends=10, down_time=0.001),
            RollingRestart(at=0.5, stagger=0.002),
            SAChurn(at=0.1, interval=0.2, cycles=3, messages=50),
        ]
        for fault in faults:
            rebuilt = Fault.from_dict(fault.to_dict())
            assert rebuilt == fault

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault.from_dict({"kind": "meteor"})


class TestDeterminism:
    def test_same_configuration_twice_is_identical(self):
        a = run_crash_gateway(n_sas=4, policy="serial").score().metrics()
        b = run_crash_gateway(n_sas=4, policy="serial").score().metrics()
        assert a == b

    def test_metrics_are_json_safe(self):
        import json

        metrics = run_crash_gateway(n_sas=2).score().metrics()
        assert json.loads(json.dumps(metrics)) == metrics

