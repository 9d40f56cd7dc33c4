"""Tests for the fault algebra itself: triggers, validation, the env and
the codec, across every kind in :data:`repro.faults.FAULT_KINDS`."""

from __future__ import annotations

import json

import pytest

from repro.core.protocol import build_protocol
from repro.faults import (
    FAULT_KINDS,
    Fault,
    FaultEnv,
    GatewayCrash,
    NatRebinding,
    PathFlap,
    RegimeShift,
    Replay,
    Reset,
    RollingRestart,
    SAChurn,
)
from repro.fleet.spec import FAULT_TAG, decode_params, encode_params
from repro.gateway import Gateway
from repro.netpath import PathPhase
from repro.sim.engine import Engine
from repro.sim.trace import NULL_TRACE

#: kind -> the fields it needs beyond its trigger.
REQUIRED = {
    "reset": {},
    "crash": {},
    "rolling_restart": {},
    "sa_churn": {},
    "flap": {"down_time": 0.001},
    "regime_shift": {"phase": PathPhase("slow")},
    "nat_rebinding": {"new_address": "nat:b"},
    "replay": {},
}

#: One instance of every kind, each on a different trigger where it can.
EVERY_KIND = [
    Reset(side="both", after_sends=10, down_time=0.001, stagger=0.0005),
    GatewayCrash(at=0.002, down_time=0.0002),
    RollingRestart(during_save=3, fraction=0.25, stagger=0.001),
    SAChurn(at=0.1, interval=0.2, cycles=3, messages=50),
    PathFlap(at=0.1, down_time=0.05, up_time=0.1, cycles=3),
    RegimeShift(after_sends=7, phase=PathPhase("congested", duration=0.5)),
    NatRebinding(at=0.3, new_address="nat:b"),
    Replay(on_wake=True, strategy="exposed", rate=1e9),
]


INF = float("inf")


def pair(**kwargs):
    return build_protocol(trace=NULL_TRACE, **kwargs)


class TestTrigger:
    def test_every_kind_is_registered(self):
        assert sorted(FAULT_KINDS) == sorted(REQUIRED)
        assert sorted(type(f).kind for f in EVERY_KIND) == sorted(REQUIRED)

    @pytest.mark.parametrize("kind", sorted(REQUIRED))
    def test_needs_exactly_one_trigger_at_construction(self, kind):
        cls, extra = FAULT_KINDS[kind], REQUIRED[kind]
        with pytest.raises(ValueError, match="exactly one trigger"):
            cls(**extra)
        with pytest.raises(ValueError, match="exactly one trigger"):
            cls(at=0.1, on_wake=True, **extra)
        cls(during_save=1, **extra)  # one trigger is enough

    @pytest.mark.parametrize("kwargs, match", [
        ({"at": -0.1}, "at"),
        ({"after_sends": 0}, "after_sends"),
        ({"during_save": 0}, "during_save"),
        ({"during_save": 1, "fraction": 1.0}, "fraction"),
        ({"at": 0.0, "down_time": -1.0}, "down_time"),
        ({"at": 0.0, "side": "middle"}, "side"),
        ({"at": 0.0, "stagger": 0.001}, "side='both'"),
        # Loaded, an infinite time would fail mid-run with the host down.
        ({"after_sends": 10, "down_time": INF}, "down_time"),
        ({"at": INF}, "at"),
        ({"at": 0.0, "side": "both", "stagger": INF}, "stagger"),
    ])
    def test_reset_fields_validated_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Reset(**kwargs)

    def test_other_fields_validated_at_construction(self):
        with pytest.raises(ValueError, match="down_time"):
            GatewayCrash(at=0.0, down_time=-1.0)
        with pytest.raises(ValueError, match="stagger"):
            RollingRestart(at=0.0, stagger=-1.0)
        with pytest.raises(ValueError, match="interval"):
            SAChurn(at=0.0, interval=0.0)
        for cls, kwargs, match in [
            (GatewayCrash, {"down_time": INF}, "down_time"),
            (RollingRestart, {"stagger": INF}, "stagger"),
            (SAChurn, {"interval": INF}, "interval"),
            (PathFlap, {"down_time": INF}, "down_time"),
            (PathFlap, {"down_time": 0.001, "up_time": INF, "cycles": 2}, "up_time"),
        ]:
            with pytest.raises(ValueError, match=match):
                cls(at=0.0, **kwargs)
        with pytest.raises(ValueError, match="cycles"):
            SAChurn(at=0.0, cycles=0)
        with pytest.raises(ValueError, match="strategy"):
            Replay(at=0.0, strategy="newest")
        with pytest.raises(ValueError, match="rate"):
            Replay(at=0.0, rate=0.0)

    @pytest.mark.parametrize("cls, kwargs, error, match", [
        (GatewayCrash, {"during_save": 2.5}, TypeError, "during_save"),
        (Reset, {"after_sends": 500.5}, TypeError, "after_sends"),
        (Reset, {"after_sends": True}, TypeError, "after_sends"),
        (PathFlap, {"at": 0.0, "down_time": 0.001, "up_time": 0.001,
                    "cycles": 2.5}, TypeError, "cycles"),
        (SAChurn, {"at": 0.0, "cycles": 2.0}, TypeError, "cycles"),
        (SAChurn, {"at": 0.0, "messages": -5}, ValueError, "messages"),
        (SAChurn, {"at": 0.0, "messages": 0}, ValueError, "messages"),
        (SAChurn, {"at": 0.0, "messages": 50.0}, TypeError, "messages"),
    ])
    def test_counts_refuse_floats_bools_and_negatives(
        self, cls, kwargs, error, match
    ):
        # A truncated or negative count would run a different story (or
        # none) and still report converged, so it fails at spec load.
        with pytest.raises(error, match=match):
            cls(**kwargs)

    def test_on_wake_fires_on_the_first_recovery_only(self):
        harness = pair()
        env = FaultEnv.of(harness)
        Reset(at=0.001, down_time=0.0001).apply(env)
        # Strikes again right after the first wake, never after the second.
        Reset(on_wake=True, down_time=0.0001).apply(env)
        harness.sender.start_traffic(count=2000)
        harness.run(until=1.0)
        records = harness.sender.reset_records
        assert len(records) == 2
        assert records[1].reset_time == records[0].resume_time

    def test_staggered_dual_reset(self):
        harness = pair()
        Reset(side="both", at=0.001, down_time=0.0002, stagger=0.0005).apply(
            FaultEnv.of(harness)
        )
        harness.sender.start_traffic(count=1000)
        harness.run(until=1.0)
        sender_reset = harness.sender.reset_records[0].reset_time
        receiver_reset = harness.receiver.reset_records[0].reset_time
        assert receiver_reset - sender_reset == pytest.approx(0.0005)


class TestEnv:
    def test_of_a_harness_and_of_a_gateway(self):
        harness = pair(with_adversary=True)
        env = FaultEnv.of(harness)
        assert (env.sender, env.receiver, env.link, env.adversary) == (
            harness.sender, harness.receiver, harness.link, harness.adversary
        )
        assert env.gateway is None
        gateway = Gateway(n_sas=2)
        assert FaultEnv.of(gateway) == FaultEnv(gateway.engine, gateway=gateway)

    @pytest.mark.parametrize("fault, missing", [
        (Reset(at=0.0), "sender"),
        (Reset(side="receiver", at=0.0), "receiver"),
        (GatewayCrash(at=0.0), "gateway"),
        (RegimeShift(at=0.0, phase=PathPhase("x")), "link"),
        (NatRebinding(at=0.0, new_address="x"), "sender"),
        (Replay(at=0.0), "adversary"),
    ])
    def test_missing_member_raises_at_apply(self, fault, missing):
        engine = Engine(trace=NULL_TRACE)
        with pytest.raises(ValueError, match=f"needs a {missing}"):
            fault.apply(FaultEnv(engine))
        assert engine.pending_events == 0  # nothing was armed

    def test_during_save_needs_a_store(self):
        harness = pair(protected=False)
        with pytest.raises(ValueError, match="no store"):
            Reset(during_save=1).apply(FaultEnv.of(harness))


class TestReplay:
    def replay_after_receiver_reset(self, strategy, recorded_at_wake=None):
        harness = pair(protected=False, with_adversary=True)
        env = FaultEnv.of(harness)
        Reset(side="receiver", after_sends=100, down_time=0.0002).apply(env)
        Replay(on_wake=True, strategy=strategy, rate=1e9).apply(env)
        if recorded_at_wake is not None:
            # Listens after the fault's own listener, at the same instant.
            harness.receiver.add_resume_listener(
                lambda: recorded_at_wake.append(len(harness.adversary.recorded))
            )
        harness.sender.start_traffic(count=150)
        harness.run(until=1.0)
        return harness

    def test_history_replays_everything_recorded_at_the_strike(self):
        recorded_at_wake = []
        harness = self.replay_after_receiver_reset("history", recorded_at_wake)
        [recorded] = recorded_at_wake
        assert recorded > 0
        assert harness.adversary.injections == recorded

    def test_max_replays_one_packet(self):
        assert self.replay_after_receiver_reset("max").adversary.injections == 1

    def test_exposed_replays_the_range_the_reset_lost(self):
        harness = self.replay_after_receiver_reset("exposed")
        record = harness.receiver.reset_records[0]
        # The unprotected receiver resumes at 0: 1..100 are exposed.
        assert (record.resumed_right_edge, record.right_edge_at_reset) == (0, 100)
        assert harness.adversary.injections == 100

    def test_exposed_without_a_reset_replays_nothing(self):
        harness = pair(with_adversary=True)
        Replay(at=0.001, strategy="exposed").apply(FaultEnv.of(harness))
        harness.sender.start_traffic(count=500)
        harness.run(until=1.0)
        assert harness.adversary.injections == 0


class TestCodec:
    @pytest.mark.parametrize("fault", EVERY_KIND, ids=lambda f: f.kind)
    def test_dict_round_trip(self, fault):
        data = json.loads(json.dumps(fault.to_dict()))
        assert data["kind"] == fault.kind
        assert Fault.from_dict(data) == fault

    @pytest.mark.parametrize("fault", EVERY_KIND, ids=lambda f: f.kind)
    def test_fleet_codec_uses_one_tag(self, fault):
        encoded = encode_params({"fault": fault})
        assert set(encoded["fault"]) == {FAULT_TAG}
        assert decode_params(json.loads(json.dumps(encoded)))["fault"] == fault

    def test_hand_written_fault_decodes(self):
        decoded = decode_params({"fault": {FAULT_TAG: {
            "kind": "crash", "at": 0.0008, "down_time": 0.0002,
        }}})
        assert decoded["fault"] == GatewayCrash(at=0.0008, down_time=0.0002)

    def test_unknown_kind_and_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
            Fault.from_dict({"kind": "meteor", "at": 0.0})
        with pytest.raises(TypeError, match="start"):
            Fault.from_dict({"kind": "sa_churn", "start": 0.1})
