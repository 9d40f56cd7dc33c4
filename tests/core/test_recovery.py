"""Tests for the Section 6 prolonged-reset recovery session."""

import pytest

from repro.core.recovery import (
    ProlongedResetSession,
    ResetNotice,
    ResetNoticeReceiver,
    send_reset_notice,
)
from repro.ipsec.costs import CostModel
from repro.net.link import Link
from repro.net.message import Message

FAST = CostModel(t_save=100e-6, t_send=4e-6, t_fetch=0.0)


def make_session(**kwargs):
    defaults = dict(k=25, costs=FAST, keep_alive_timeout=0.5, rtt=0.002, seed=0)
    defaults.update(kwargs)
    return ProlongedResetSession(**defaults)


class TestSteadyState:
    def test_bidirectional_traffic_flows(self):
        session = make_session()
        session.start_traffic()
        session.run(until=0.05)
        session.stop_traffic()
        session.run(until=0.1)
        assert session.host_a.receiver.delivered_total > 100
        assert session.host_b.receiver.delivered_total > 100
        report = session.report()
        assert report.replays_accepted_total == 0


class TestOutageRecovery:
    def test_icmp_detection_and_resync(self):
        session = make_session()
        session.start_traffic()
        outage = 0.05
        session.engine.call_at(0.02, session.host_b.reset_host, outage)
        session.run(until=0.02 + outage + 0.3)
        session.stop_traffic()
        session.run(until=0.02 + outage + 0.4)
        report = session.report()
        a = report.host_a
        assert a.peer_down_detected_at is not None
        assert a.peer_down_detected_at >= 0.02
        assert not a.keepalive_expired
        assert a.peer_back_up_at is not None
        assert a.peer_back_up_at >= 0.02 + outage
        assert a.resync_seq is not None
        assert report.recovered

    def test_resync_seq_is_leaped(self):
        session = make_session()
        session.start_traffic()
        session.engine.call_at(0.02, session.host_b.reset_host, 0.05)
        session.run(until=0.3)
        session.stop_traffic()
        session.run(until=0.4)
        record = session.host_b.sender.reset_records[0]
        assert session.report().host_a.resync_seq == record.resumed_seq

    def test_traffic_resumes_both_ways(self):
        session = make_session()
        post = {"a": 0, "b": 0}  # deliveries after the outage, per host

        def count_into(host):
            def on_process(packet, verdict):
                if verdict.accepted and session.engine.now > 0.08:
                    post[host] += 1

            return on_process

        session.host_a.receiver.add_process_listener(count_into("a"))
        session.host_b.receiver.add_process_listener(count_into("b"))
        session.start_traffic()
        session.engine.call_at(0.02, session.host_b.reset_host, 0.05)
        session.run(until=0.4)
        session.stop_traffic()
        session.run(until=0.5)
        assert post["a"]  # b -> a resumed
        assert post["b"]  # a -> b resumed

    def test_keepalive_expiry_on_long_outage(self):
        session = make_session(keep_alive_timeout=0.1)
        session.start_traffic()
        session.engine.call_at(0.02, session.host_b.reset_host, 0.5)
        session.run(until=1.0)
        session.stop_traffic()
        session.run(until=1.2)
        assert session.report().host_a.keepalive_expired

    def test_replays_during_outage_rejected(self):
        session = make_session(with_adversary=True)
        session.start_traffic()
        session.engine.call_at(0.02, session.host_b.reset_host, 0.1)
        session.engine.call_at(0.05, lambda: session.adversary.replay_history(rate=5000.0))
        session.run(until=0.5)
        session.stop_traffic()
        session.run(until=0.6)
        report = session.report()
        assert report.replayed_into_live_host > 0
        assert report.replays_accepted_total == 0

    def test_no_replays_across_esp_integrity(self):
        session = make_session()
        session.start_traffic()
        session.run(until=0.02)
        session.stop_traffic()
        session.run(until=0.05)
        assert session.host_a.receiver.integrity_failures == 0


class TestResetNoticeStrawman:
    def test_genuine_notice_reopens_window(self, engine):
        receiver = ResetNoticeReceiver(engine, "q", w=8, costs=FAST)
        link = Link(engine, "link", sink=receiver.on_receive)
        for seq in range(1, 10):
            link.send(Message(seq=seq))
        engine.run()
        assert receiver.delivered_total == 9
        send_reset_notice("p", link, engine.now)
        engine.run()
        assert receiver.notices_honoured == 1
        link.send(Message(seq=1))  # restarted sender
        engine.run()
        assert receiver.delivered_total == 10

    def test_replayed_notice_reopens_window_again(self, engine):
        """The paper's objection, mechanically."""
        receiver = ResetNoticeReceiver(engine, "q", w=8, costs=FAST)
        link = Link(engine, "link", sink=receiver.on_receive)
        notice = ResetNotice(origin="p", sent_at=0.0)
        for seq in range(1, 6):
            link.send(Message(seq=seq))
        link.send(notice)
        engine.run()
        # An attacker replays both the notice and the old messages.
        link.inject(notice)
        old = Message(seq=3)
        link.inject(old)
        engine.run()
        assert receiver.notices_honoured == 2
        assert receiver.delivered_total == 6  # seq 3 accepted again

    def test_notice_dropped_while_down(self, engine):
        receiver = ResetNoticeReceiver(engine, "q", w=8, costs=FAST)
        receiver.reset(down_for=None)
        receiver.on_receive(ResetNotice(origin="p", sent_at=0.0))
        assert receiver.notices_honoured == 0
        assert receiver.dropped_while_down == 1
