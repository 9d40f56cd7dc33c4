"""Tests for the path fault kinds of :mod:`repro.faults` and their fleet
JSON round-trip."""

from __future__ import annotations

import json

import pytest

from repro.core.protocol import build_protocol
from repro.faults import Fault, FaultEnv, NatRebinding, PathFlap, RegimeShift
from repro.fleet.spec import (
    FAULT_TAG,
    PATHPROFILE_TAG,
    CampaignSpec,
    ScenarioGrid,
    decode_params,
    encode_params,
)
from repro.gateway import Gateway
from repro.net.delay import FixedDelay
from repro.net.link import Link
from repro.net.loss import BernoulliLoss
from repro.netpath import PathPhase, PathProfile
from repro.sim.engine import Engine
from repro.sim.trace import NULL_TRACE


def make_link():
    engine = Engine(trace=NULL_TRACE)
    delivered = []
    link = Link(engine, "l", sink=delivered.append)
    return engine, link, delivered


class TestOneCycleOutage:
    def test_blackholes_exactly_the_window(self):
        engine, link, delivered = make_link()
        PathFlap(at=0.001, down_time=0.001).apply(FaultEnv(engine, link=link))
        for t in (0.0005, 0.0015, 0.0025):
            engine.call_at(t, link.send, t)
        engine.run()
        assert delivered == [0.0005, 0.0025]
        assert link.blackholed == 1

    def test_rejects_non_positive_down_time(self):
        with pytest.raises(ValueError, match="down_time"):
            PathFlap(at=0.0, down_time=0.0)

    def test_needs_a_link(self):
        with pytest.raises(ValueError, match="needs a link"):
            PathFlap(at=0.0, down_time=1.0).apply(FaultEnv(Engine()))


class TestPathFlap:
    def test_cycles_open_and_close(self):
        engine, link, delivered = make_link()
        flap = PathFlap(at=0.001, down_time=0.001, up_time=0.001, cycles=2)
        flap.apply(FaultEnv(engine, link=link))
        # down: [1ms, 2ms) and [3ms, 4ms); up elsewhere
        times = [0.0005, 0.0015, 0.0025, 0.0035, 0.0045]
        for t in times:
            engine.call_at(t, link.send, t)
        engine.run()
        assert delivered == [0.0005, 0.0025, 0.0045]
        assert link.blackholed == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="cycles"):
            PathFlap(at=0.0, down_time=1.0, up_time=1.0, cycles=0)
        with pytest.raises(ValueError, match="down_time"):
            PathFlap(at=0.0, down_time=0.0, up_time=1.0)
        with pytest.raises(ValueError, match="up_time"):
            PathFlap(at=0.0, down_time=1.0, cycles=2)


class TestRegimeShift:
    def test_swaps_models_at_the_instant(self):
        engine, link, delivered = make_link()
        RegimeShift(
            at=0.001,
            phase=PathPhase("bad", loss=BernoulliLoss(1.0)),
        ).apply(FaultEnv(engine, link=link))
        engine.call_at(0.0005, link.send, "before")
        engine.call_at(0.0015, link.send, "after")
        engine.run()
        assert delivered == ["before"]
        assert link.regime_shifts == 1

    def test_accepts_phase_as_dict(self):
        shift = RegimeShift(at=0.0, phase={"name": "x", "duration": None})
        assert isinstance(shift.phase, PathPhase)


class TestNatRebinding:
    def test_after_sends_moves_the_sender_address(self):
        harness = build_protocol(trace=NULL_TRACE, sender_address="nat:a")
        NatRebinding(after_sends=3, new_address="nat:b").apply(
            FaultEnv.of(harness)
        )
        srcs = []

        def on_process(packet, verdict):
            if verdict.accepted:
                srcs.append(packet.src)

        harness.receiver.add_process_listener(on_process)
        harness.sender.start_traffic(count=6)
        harness.run(until=1.0)
        assert harness.sender.address == "nat:b"
        assert srcs == ["nat:a"] * 3 + ["nat:b"] * 3

    def test_needs_exactly_one_trigger_at_construction(self):
        """Misconfigured faults must fail at spec-authoring time, before
        they can JSON-encode into a campaign and error mid-fleet-run."""
        with pytest.raises(ValueError, match="exactly one trigger"):
            NatRebinding(new_address="x")
        with pytest.raises(ValueError, match="exactly one trigger"):
            NatRebinding(new_address="x", at=1.0, after_sends=1)

    def test_rejects_empty_address(self):
        with pytest.raises(ValueError, match="new_address"):
            NatRebinding(new_address="", at=0.0)


ALL_FAULTS = [
    PathFlap(at=0.5, down_time=0.25),
    PathFlap(at=0.1, down_time=0.05, up_time=0.1, cycles=3),
    RegimeShift(at=1.0, phase=PathPhase(
        "congested", delay=FixedDelay(0.002), loss=BernoulliLoss(0.1)
    )),
    NatRebinding(new_address="nat:b", after_sends=100),
]


#: A one-cycle flap is an outage.
FAULT_IDS = ["outage", "flap", "regime_shift", "nat_rebinding"]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("fault", ALL_FAULTS, ids=FAULT_IDS)
    def test_fault_dict_round_trip(self, fault):
        data = json.loads(json.dumps(fault.to_dict()))
        assert Fault.from_dict(data) == fault

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault.from_dict({"kind": "gremlin"})

    @pytest.mark.parametrize("fault", ALL_FAULTS, ids=FAULT_IDS)
    def test_fleet_codec_tags_faults(self, fault):
        encoded = encode_params({"fault": fault})
        assert set(encoded["fault"]) == {FAULT_TAG}
        decoded = decode_params(json.loads(json.dumps(encoded)))
        assert decoded["fault"] == fault

    def test_fleet_codec_tags_profiles(self):
        profile = PathProfile(
            cycle=True,
            phases=(
                PathPhase("good", duration=0.01),
                PathPhase("bad", duration=0.01, loss=BernoulliLoss(0.5)),
            ),
        )
        encoded = encode_params({"path": profile})
        assert set(encoded["path"]) == {PATHPROFILE_TAG}
        decoded = decode_params(json.loads(json.dumps(encoded)))
        assert decoded["path"].to_dict() == profile.to_dict()

    def test_spec_file_round_trip_with_path_params(self, tmp_path):
        """A campaign spec carrying a PathProfile survives dump/load and
        expands to identical tasks (the netpath fleet guarantee)."""
        profile = PathProfile(phases=(
            PathPhase("calm", duration=0.002),
            PathPhase("storm", loss=BernoulliLoss(0.02)),
        ))
        spec = CampaignSpec(
            name="netpath-rt",
            base_seed=11,
            grids=(ScenarioGrid(
                scenario="nat_rebinding",
                params={
                    "rebind_after_sends": 50,
                    "messages_after_rebind": 50,
                    "policy": ["strict", "rebind_on_valid"],
                    "path": profile,
                },
            ),),
        )
        path = spec.dump(tmp_path / "spec.json")
        loaded = CampaignSpec.load(path)
        assert [t.to_dict() for t in loaded.tasks()] == [
            t.to_dict() for t in spec.tasks()
        ]
        decoded = decode_params(loaded.tasks()[0].params)
        assert decoded["path"].to_dict() == profile.to_dict()


class TestGatewayPerSaPaths:
    def test_outage_hits_one_sa_of_n(self):
        gateway = Gateway(n_sas=3, k=50, seed=0)
        outage = PathFlap(at=0.0005, down_time=0.0005)
        outage.apply(FaultEnv.of(gateway.sas[1].harness))
        gateway.start_traffic(count=200)
        gateway.run(until=0.01)
        blackholed = [unit.harness.link.blackholed for unit in gateway.sas]
        assert blackholed[1] > 0
        assert blackholed[0] == 0 and blackholed[2] == 0
        report = gateway.score(check_bounds=False)
        assert report.metrics()["replays_accepted"] == 0

    def test_per_sa_profile_override(self):
        hole = PathProfile(phases=(PathPhase("hole", up=False),))
        gateway = Gateway(n_sas=2, k=50, sa_paths={1: hole})
        gateway.start_traffic(count=50)
        gateway.run(until=0.01)
        assert gateway.sas[0].harness.link.blackholed == 0
        assert gateway.sas[1].harness.link.blackholed == 50
