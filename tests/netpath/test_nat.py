"""Tests for repro.netpath.nat, Message.src, and the rebinding policies."""

from __future__ import annotations

import pytest

from repro.core.protocol import build_protocol
from repro.net.message import Message
from repro.netpath.nat import REBIND_POLICIES, NatGate
from repro.sim.trace import NULL_TRACE


class TestMessageSrc:
    def test_src_defaults_to_none(self):
        assert Message(seq=1).src is None

    def test_sender_address_stamped_on_packets(self):
        harness = build_protocol(trace=NULL_TRACE, sender_address="nat:a")
        seen = []
        harness.link.add_tap(lambda _t, packet, _inj: seen.append(packet.src))
        harness.sender.send_burst(3)
        harness.sender.address = "nat:b"
        harness.sender.send_burst(2)
        assert seen == ["nat:a"] * 3 + ["nat:b"] * 2

    def test_default_sender_is_addressless(self):
        harness = build_protocol(trace=NULL_TRACE)
        seen = []
        harness.link.add_tap(lambda _t, packet, _inj: seen.append(packet.src))
        harness.sender.send_burst(1)
        assert seen == [None]

    @pytest.mark.parametrize("encap", ["esp", "ah"])
    def test_encapsulated_packets_carry_the_outer_src(self, encap):
        """ESP and AH ride src on the outer header (outside the ICV), so
        a NatGate sees the same addresses as in plain mode."""
        harness = build_protocol(
            trace=NULL_TRACE, encap=encap, sender_address="nat:a"
        )
        seen = []
        harness.link.add_tap(lambda _t, packet, _inj: seen.append(packet.src))
        harness.sender.send_burst(2)
        harness.run(until=0.001)
        assert seen == ["nat:a", "nat:a"]
        assert harness.receiver.delivered_total == 2  # ICV unaffected


class TestSaRebindPolicy:
    def test_policies_are_the_known_set(self):
        assert REBIND_POLICIES == ("static", "strict", "rebind_on_valid")


def gated_harness(policy: str, **kwargs):
    harness = build_protocol(
        trace=NULL_TRACE, sender_address="nat:a", **kwargs
    )
    gate = NatGate(harness.receiver, policy=policy, initial_binding="nat:a")
    harness.link.sink = gate.on_receive
    return harness, gate


class TestNatGate:
    def test_rejects_unknown_policy(self):
        harness = build_protocol(trace=NULL_TRACE)
        with pytest.raises(ValueError, match="rebind policy"):
            NatGate(harness.receiver, policy="wander")

    def test_rebind_on_valid_moves_binding_once(self):
        harness, gate = gated_harness("rebind_on_valid")
        harness.sender.send_burst(5)
        harness.sender.address = "nat:b"
        harness.sender.send_burst(5)
        harness.run(until=0.01)
        assert gate.binding == "nat:b"
        assert gate.rebinds == 1
        assert harness.receiver.delivered_total == 10

    def test_strict_drops_the_moved_stream(self):
        harness, gate = gated_harness("strict")
        harness.sender.send_burst(5)
        harness.sender.address = "nat:b"
        harness.sender.send_burst(5)
        harness.run(until=0.01)
        assert gate.binding == "nat:a"
        assert gate.rejected == 5
        assert harness.receiver.delivered_total == 5

    def test_static_forwards_everything_without_rebinding(self):
        harness, gate = gated_harness("static")
        harness.sender.send_burst(3)
        harness.sender.address = "nat:b"
        harness.sender.send_burst(3)
        harness.run(until=0.01)
        assert gate.binding == "nat:a"
        assert gate.rebinds == 0 and gate.rejected == 0
        assert harness.receiver.delivered_total == 6

    def test_window_invalid_packet_does_not_rebind(self):
        """A replay from a new address must not move the binding."""
        harness, gate = gated_harness("rebind_on_valid", with_adversary=True)
        harness.sender.send_burst(5)
        harness.run(until=0.001)
        # Replay a recorded (old-binding) packet... but pretend the
        # adversary moved: inject a stale copy re-stamped from nat:evil.
        _, recorded = harness.adversary.recorded[0]
        forged = Message(
            seq=recorded.seq, payload=recorded.payload,
            sent_at=recorded.sent_at, src="nat:evil", uid=recorded.uid,
        )
        harness.adversary.inject_now(forged)
        harness.run(until=0.002)
        assert gate.binding == "nat:a"  # replay was rejected, no rebind
        assert gate.rebinds == 0
        assert gate.off_binding == 1

    def test_first_contact_latches_binding(self):
        harness = build_protocol(trace=NULL_TRACE, sender_address="nat:a")
        gate = NatGate(harness.receiver, policy="strict", initial_binding=None)
        harness.link.sink = gate.on_receive
        harness.sender.send_burst(2)
        harness.run(until=0.001)
        assert gate.binding == "nat:a"
        assert gate.rejected == 0
