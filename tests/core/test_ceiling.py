"""Tests for the write-ahead ceiling variant (the reproduction's repair)."""

import pytest

from repro.core.ceiling import CeilingReceiver, CeilingSender
from repro.core.protocol import build_protocol
from repro.ipsec.costs import CostModel
from repro.net.link import Link
from repro.net.message import Message

FAST = CostModel(t_save=100e-6, t_send=4e-6, t_fetch=0.0)


class TestCeilingSender:
    def make(self, engine, k=25, **kwargs):
        received = []
        link = Link(engine, "link", sink=received.append)
        sender = CeilingSender(engine, "p", link, k=k, costs=FAST, **kwargs)
        return sender, received

    def test_never_sends_at_or_above_committed_ceiling(self, engine):
        sender, received = self.make(engine)
        sender.start_traffic(count=400)
        engine.run(until=1.0)
        # Every send must have been under the ceiling committed at that
        # moment; the final ceiling is an upper bound for all of them.
        assert max(m.seq for m in received) < sender.committed_ceiling

    def test_reservation_extends_in_background(self, engine):
        # k = 50 = 2x the save duration in messages: the reservation
        # pipeline keeps ahead of line-rate traffic with no stalls.
        sender, received = self.make(engine, k=50)
        sender.start_traffic(count=100)
        engine.run(until=1.0)
        assert len(received) == 100
        assert sender.stalls == 0
        assert sender.store.saves_committed >= 2

    def test_stall_when_traffic_outruns_reservation(self, engine):
        # Huge save latency: the reservation cannot keep up at line rate.
        slow = CostModel(t_save=0.1, t_send=4e-6, t_fetch=0.0)
        received = []
        link = Link(engine, "link", sink=received.append)
        sender = CeilingSender(engine, "p", link, k=10, costs=slow)
        sender.start_traffic(count=100)
        engine.run(until=2.0)
        assert sender.stalls > 0
        # Stalls suppress, never violate: everything sent is below ceiling.
        assert all(m.seq < sender.committed_ceiling for m in received)

    def test_wake_resumes_at_fetched_ceiling_no_reuse(self, engine):
        sender, received = self.make(engine)
        sender.start_traffic(count=200)
        engine.run(until=0.0003)
        sender.reset(down_for=0.0001)
        engine.run(until=1.0)
        sender.start_traffic(count=100)
        engine.run(until=2.0)
        seqs = [m.seq for m in received]
        assert len(seqs) == len(set(seqs)), "sequence number reused"
        record = sender.reset_records[0]
        assert record.resumed_seq == record.fetched
        assert record.lost_seqnums is not None and 0 <= record.lost_seqnums <= 2 * 25

    def test_reset_mid_save_still_safe(self, engine):
        sender, received = self.make(engine)
        sender.send_burst(20)  # reservation save for 51 in flight
        assert sender.store.save_in_flight
        sender.reset(down_for=0.0)
        engine.run(until=1.0)
        sender.send_burst(30)
        seqs = [m.seq for m in received]
        assert len(seqs) == len(set(seqs))

    def test_rejects_bad_k(self, engine):
        with pytest.raises(ValueError):
            self.make(engine, k=0)
        for bad in (0.5, 25.7, True):
            with pytest.raises(TypeError, match="k must be int"):
                self.make(engine, k=bad)


class TestCeilingReceiver:
    def make(self, engine, k=25, w=16):
        receiver = CeilingReceiver(engine, "q", k=k, w=w, costs=FAST)
        return receiver

    def test_rejects_bad_k(self, engine):
        with pytest.raises(ValueError):
            self.make(engine, k=0)
        for bad in (0.5, 25.7, True):
            with pytest.raises(TypeError, match="k must be int"):
                self.make(engine, k=bad)

    def test_in_order_stream_delivered(self, engine):
        receiver = self.make(engine)
        for seq in range(1, 120):
            receiver.on_receive(Message(seq=seq))
            engine.run(until=engine.now + 1e-3)  # let ceiling raises land
        assert receiver.delivered_total == 119

    def test_over_ceiling_message_buffered_then_delivered(self, engine):
        receiver = self.make(engine, k=10)
        receiver.on_receive(Message(seq=500))  # far above ceiling 10
        assert receiver.delivered_total == 0
        assert receiver.buffered_for_ceiling == 1
        engine.run(until=1.0)  # ceiling save commits, buffer drains
        assert receiver.delivered_total == 1
        assert receiver.committed_ceiling >= 501

    def test_never_delivers_at_or_above_ceiling(self, engine):
        """The safety invariant: delivery implies seq < committed ceiling
        at delivery time (so a post-reset FETCH always clears it)."""
        receiver = self.make(engine, k=10)
        violations = []

        def on_deliver(seq: int, payload: bytes) -> None:
            if seq >= receiver.committed_ceiling:
                violations.append(seq)

        receiver.on_deliver = on_deliver
        for seq in [1, 2, 30, 3, 31, 100, 101, 32, 102, 150]:
            receiver.on_receive(Message(seq=seq))
            engine.run(until=engine.now + 1e-3)
        assert violations == []
        assert receiver.delivered_total >= 7  # in-window traffic lands

    def test_wake_resumes_at_ceiling_no_replay(self, engine):
        receiver = self.make(engine, k=10)
        history = [Message(seq=seq) for seq in range(1, 40)]
        for packet in history:
            receiver.on_receive(packet)
            engine.run(until=engine.now + 1e-3)
        delivered_before = receiver.delivered_total
        receiver.reset(down_for=0.0)
        engine.run(until=engine.now + 1.0)
        for packet in history:  # full-history replay
            receiver.on_receive(packet)
        assert receiver.delivered_total == delivered_before

    def test_replay_rejected_even_after_jump_plus_reset(self, engine):
        """The staggered scenario that breaks SAVE/FETCH."""
        receiver = self.make(engine, k=10)
        jump = Message(seq=300)  # a post-sender-leap jump message
        receiver.on_receive(jump)
        engine.run(until=engine.now + 1.0)
        assert receiver.delivered_total == 1
        # Reset immediately: with SAVE/FETCH the checkpoint would lag.
        receiver.reset(down_for=0.0)
        engine.run(until=engine.now + 1.0)
        receiver.on_receive(jump)  # replay
        assert receiver.delivered_total == 1  # rejected

    def test_crash_clears_ceiling_buffer(self, engine):
        receiver = self.make(engine, k=10)
        receiver.on_receive(Message(seq=500))
        assert receiver.buffered_for_ceiling == 1
        receiver.reset(down_for=0.0)
        engine.run(until=engine.now + 1.0)
        # The buffered packet died with the host: not delivered later.
        assert receiver.delivered_total == 0


class TestCeilingEndToEnd:
    def test_harness_run_converges(self):
        harness = build_protocol(variant="ceiling", k_p=25, k_q=25)
        seqs = []
        harness.receiver.on_deliver = lambda seq, payload: seqs.append(seq)
        harness.sender.start_traffic(count=300)
        harness.engine.call_at(0.0005, harness.sender.reset, 0.0002)
        harness.run(until=1.0)
        report = harness.score(check_bounds=False)
        assert report.replays_accepted == 0
        assert seqs
        assert len(seqs) == len(set(seqs))

    def test_dual_reset_with_replay_safe(self):
        harness = build_protocol(variant="ceiling", k_p=25, k_q=25,
                                 with_adversary=True)
        harness.sender.start_traffic(count=300)

        def dual():
            harness.sender.reset(0.0002)
            harness.receiver.reset(0.0002)

        harness.engine.call_at(0.0005, dual)

        def replay():
            assert harness.adversary is not None
            harness.adversary.replay_history(rate=1e6)

        harness.receiver.add_resume_listener(replay)
        harness.run(until=1.0)
        assert harness.score(check_bounds=False).replays_accepted == 0
