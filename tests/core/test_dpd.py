"""Tests for dead-peer detection."""

import pytest

from repro.core.dpd import HeartbeatDpd, TrafficDpd, detection_time


class Probes:
    """Test double: a probe channel with a controllable peer."""

    def __init__(self, engine, rtt=0.01):
        self.engine = engine
        self.rtt = rtt
        self.peer_up = True
        self.dpd = None
        self.sent = []

    def send_probe(self, token):
        self.sent.append(token)
        if self.peer_up:
            self.engine.call_later(self.rtt, self.dpd.on_probe_ack, token)


class TestHeartbeatDpd:
    def make(self, engine, **kwargs):
        probes = Probes(engine)
        dead = []
        dpd = HeartbeatDpd(
            engine,
            "dpd",
            send_probe=probes.send_probe,
            on_dead=lambda: dead.append(engine.now),
            interval=kwargs.get("interval", 0.1),
            timeout=kwargs.get("timeout", 0.05),
            max_misses=kwargs.get("max_misses", 3),
        )
        probes.dpd = dpd
        return probes, dpd, dead

    def test_live_peer_never_declared_dead(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()
        engine.run(until=2.0)
        dpd.stop()
        assert dead == []
        assert dpd.peer_alive
        assert dpd.acks_received > 10

    def test_dead_peer_detected_after_max_misses(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()
        engine.run(until=0.55)
        probes.peer_up = False
        engine.run(until=2.0)
        dpd.stop()
        assert len(dead) == 1
        assert not dpd.peer_alive
        # Worst case: interval + max_misses * interval after the failure.
        assert dead[0] - 0.55 <= 0.1 + 3 * 0.1 + 0.05 + 1e-9

    def test_detection_time_helper(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()
        probes.peer_up = False
        engine.run(until=1.0)
        dpd.stop()
        assert detection_time(dpd, reset_time=0.0) == pytest.approx(dead[0])

    def test_detection_time_none_while_alive(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()
        engine.run(until=0.5)
        dpd.stop()
        assert detection_time(dpd, reset_time=0.0) is None

    def test_revival_detected(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()
        probes.peer_up = False
        engine.run(until=1.0)
        assert not dpd.peer_alive
        probes.peer_up = True
        engine.run(until=2.0)
        dpd.stop()
        assert dpd.peer_alive
        assert len(dead) == 1  # declared dead only once

    def test_late_ack_ignored(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()
        engine.run(until=0.2)
        dpd.stop()
        dpd.on_probe_ack(9999)  # unknown token: no crash, no state change
        assert dpd.peer_alive

    def test_max_misses_is_not_truncated(self, engine):
        with pytest.raises(TypeError, match="max_misses must be int"):
            self.make(engine, max_misses=2.5)


class TestTrafficDpd:
    def make(self, engine, rtt=0.01):
        probes = Probes(engine, rtt=rtt)
        dead = []
        dpd = TrafficDpd(
            engine,
            "dpd",
            send_probe=probes.send_probe,
            on_dead=lambda: dead.append(engine.now),
            idle_threshold=0.1,
            timeout=0.05,
            max_misses=2,
        )
        probes.dpd = dpd
        return probes, dpd, dead

    def test_no_probe_without_outbound_traffic(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()
        engine.run(until=1.0)
        dpd.stop()
        assert probes.sent == []  # nothing to protect, nothing to prove

    def test_no_probe_when_peer_talking(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()

        def chat():
            dpd.note_sent()
            dpd.note_received()

        from repro.sim.process import Timer

        chatter = Timer(engine, 0.02, chat)
        chatter.start()
        engine.run(until=1.0)
        chatter.stop()
        dpd.stop()
        assert probes.sent == []

    def test_probes_when_outbound_but_silent_peer(self, engine):
        probes, dpd, dead = self.make(engine)
        probes.peer_up = False
        dpd.start()
        engine.call_later(0.01, dpd.note_sent)
        engine.call_later(0.06, dpd.note_sent)  # keep the conversation fresh
        engine.run(until=1.0)
        dpd.stop()
        assert probes.sent  # probed
        assert dead  # and declared dead after 2 misses

    def test_inbound_traffic_acks_probes_implicitly(self, engine):
        probes, dpd, dead = self.make(engine)
        probes.peer_up = False  # probes themselves are never answered
        dpd.start()
        dpd.note_sent()
        engine.call_later(0.08, dpd.note_received)  # data arrives instead
        engine.run(until=0.3)
        dpd.stop()
        assert dpd.peer_alive
        assert dead == []

    def test_fully_idle_conversation_not_probed(self, engine):
        probes, dpd, dead = self.make(engine)
        dpd.start()
        dpd.note_sent()  # one send, then silence from us too
        engine.run(until=2.0)
        dpd.stop()
        # Once the conversation itself has been idle past the threshold,
        # probing stops (at most the checks inside the threshold probe).
        assert len(probes.sent) <= 2
