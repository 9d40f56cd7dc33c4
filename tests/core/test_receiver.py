"""Tests for the receiver endpoints (Sections 2 and 4, process q)."""

from collections import Counter

import pytest

from repro.core.protocol import build_protocol
from repro.core.receiver import SaveFetchReceiver, UnprotectedReceiver
from repro.ipsec.costs import CostModel
from repro.ipsec.replay_window import Verdict
from repro.net.delay import FixedDelay, UniformJitterDelay
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.message import Message
from repro.netpath import PathPhase, PathProfile
from repro.sim.trace import NULL_TRACE


@pytest.fixture
def costs():
    return CostModel(t_save=100e-6, t_send=4e-6, t_fetch=0.0)


def msg(seq: int) -> Message:
    return Message(seq=seq)


class TestUnprotectedReceiver:
    def test_delivers_in_order_stream(self, engine, costs):
        receiver = UnprotectedReceiver(engine, "q", w=8, costs=costs)
        delivered = []
        receiver.on_deliver = lambda seq, payload: delivered.append(seq)
        for seq in range(1, 6):
            receiver.on_receive(msg(seq))
        assert delivered == [1, 2, 3, 4, 5]
        assert receiver.right_edge == 5

    def test_discards_duplicates(self, engine, costs):
        receiver = UnprotectedReceiver(engine, "q", w=8, costs=costs)
        receiver.on_receive(msg(3))
        receiver.on_receive(msg(3))
        assert receiver.delivered_total == 1
        assert receiver.verdict_counts[Verdict.DUPLICATE] == 1

    def test_reset_loses_window(self, engine, costs):
        receiver = UnprotectedReceiver(engine, "q", w=8, costs=costs)
        for seq in range(1, 20):
            receiver.on_receive(msg(seq))
        receiver.reset(down_for=0.01)
        engine.run()
        # Cold window: the old traffic is acceptable again (the Section 3
        # failure this class exists to demonstrate).
        receiver.on_receive(msg(1))
        assert receiver.delivered_total == 20
        record = receiver.reset_records[0]
        assert record.right_edge_at_reset == 19
        assert record.resumed_right_edge == 0

    def test_down_drops(self, engine, costs):
        receiver = UnprotectedReceiver(engine, "q", w=8, costs=costs)
        receiver.reset(down_for=None)
        receiver.on_receive(msg(1))
        assert receiver.dropped_while_down == 1
        receiver.wake()
        receiver.on_receive(msg(1))
        assert receiver.delivered_total == 1


class TestSaveFetchReceiverSaves:
    def test_background_save_every_k_advance(self, engine, costs):
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        for seq in range(1, 10):
            receiver.on_receive(msg(seq))
        assert receiver.store.saves_started == 0
        receiver.on_receive(msg(10))  # r = 10 >= 10 + 0
        assert receiver.store.saves_started == 1
        assert receiver.lst == 10

    def test_save_triggered_by_jump(self, engine, costs):
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        receiver.on_receive(msg(35))  # single message jumps r past k
        assert receiver.store.saves_started == 1
        assert receiver.lst == 35


class TestSaveFetchReceiverRecovery:
    def drive(self, engine, receiver, upto: int) -> None:
        for seq in range(1, upto + 1):
            receiver.on_receive(msg(seq))
        engine.run(until=engine.now + 1.0)  # commit outstanding saves

    def test_wake_fetches_leaps_and_floods(self, engine, costs):
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        self.drive(engine, receiver, 23)
        receiver.reset(down_for=0.001)
        engine.run(until=engine.now + 1.0)
        record = receiver.reset_records[0]
        assert record.fetched == 20
        assert record.resumed_right_edge == 40
        assert receiver.right_edge == 40
        # Everything at or below the resumed edge is assumed received.
        receiver.on_receive(msg(40))
        receiver.on_receive(msg(35))
        assert receiver.delivered_total == 23
        # The next fresh number is deliverable.
        receiver.on_receive(msg(41))
        assert receiver.delivered_total == 24

    def test_wake_buffering_until_save_commits(self, engine, costs):
        """Section 4: messages during the wake SAVE go to a buffer."""
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        delivered = []
        receiver.on_deliver = lambda seq, payload: delivered.append(seq)
        self.drive(engine, receiver, 23)
        receiver.reset(down_for=0.0)
        engine.run(max_events=1)  # wake fires; sync save in flight
        assert receiver.is_up and receiver.wait
        receiver.on_receive(msg(41))
        receiver.on_receive(msg(42))
        assert receiver.delivered_total == 23  # buffered, not processed
        assert receiver.reset_records[0].buffered_during_wake == 2
        engine.run(until=engine.now + 1.0)
        assert receiver.delivered_total == 25  # drained in order
        assert delivered[-2:] == [41, 42]

    def test_buffer_lost_if_second_reset_hits(self, engine, costs):
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        self.drive(engine, receiver, 23)
        receiver.reset(down_for=0.0)
        engine.run(max_events=1)
        receiver.on_receive(msg(41))
        receiver.reset(down_for=0.0)  # second reset during recovery
        engine.run(until=engine.now + 1.0)
        # The buffered message died with the host; no double delivery.
        assert receiver.delivered_total == 23

    def test_wake_save_persists_leaped_edge(self, engine, costs):
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        self.drive(engine, receiver, 23)
        receiver.reset(down_for=0.0)
        engine.run(until=engine.now + 1.0)
        assert receiver.store.committed_value == 40

    def test_replay_of_entire_history_rejected_after_wake(self, engine, costs):
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        history = [msg(seq) for seq in range(1, 24)]
        for packet in history:
            receiver.on_receive(packet)
        engine.run(until=engine.now + 1.0)
        receiver.reset(down_for=0.0)
        engine.run(until=engine.now + 1.0)
        before = receiver.delivered_total
        for packet in history:
            receiver.on_receive(packet)
        assert receiver.delivered_total == before

    def test_fresh_discards_bounded_by_2k(self, engine, costs):
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        self.drive(engine, receiver, 23)
        receiver.reset(down_for=0.0)
        engine.run(until=engine.now + 1.0)
        # Fresh messages 24..40 look replayed (<= resumed edge 40): that is
        # at most 2k = 20 losses; 41 is accepted.
        discarded = 0
        for seq in range(24, 42):
            before = receiver.delivered_total
            receiver.on_receive(msg(seq))
            if receiver.delivered_total == before:
                discarded += 1
        assert discarded == 17
        assert discarded <= 20

    def test_resume_listener_fires_after_drain(self, engine, costs):
        receiver = SaveFetchReceiver(engine, "q", k=10, w=8, costs=costs)
        self.drive(engine, receiver, 23)
        receiver.reset(down_for=0.0)
        engine.run(max_events=1)
        order = []
        receiver.add_resume_listener(lambda: order.append("resumed"))
        receiver.on_receive(msg(41))
        receiver.on_deliver = lambda seq, payload: order.append(seq)
        engine.run(until=engine.now + 1.0)
        assert order == [41, "resumed"]

    def test_rejects_bad_k(self, engine, costs):
        with pytest.raises(ValueError):
            SaveFetchReceiver(engine, "q", k=0, costs=costs)
        # Not truncated: k=0.5 would run with K=0, w=64.7 with w=64.
        for bad in (0.5, 25.7, True):
            with pytest.raises(TypeError, match="k must be int"):
                SaveFetchReceiver(engine, "q", k=bad, costs=costs)
        for bad in (64.7, True):
            with pytest.raises(TypeError, match="w must be int"):
                SaveFetchReceiver(engine, "q", k=25, w=bad, costs=costs)


class TestVerdictCounts:
    def test_counts_match_every_processed_verdict(self):
        """An ESP pair on a lossy, reordering path with alternating resets
        and replays on each receiver wake meets every verdict."""
        path = PathProfile(
            phases=(
                PathPhase("calm", duration=0.002, delay=FixedDelay(20e-6),
                          loss=NoLoss()),
                PathPhase("rough", duration=0.002,
                          delay=UniformJitterDelay(10e-6, 40e-6),
                          loss=BernoulliLoss(0.01), fifo=False),
            ),
            cycle=True,
        )
        harness = build_protocol(trace=NULL_TRACE, encap="esp", seed=1,
                                 with_adversary=True, path=path)
        sender, receiver = harness.sender, harness.receiver
        seen = Counter()
        receiver.add_process_listener(
            lambda packet, verdict: seen.update([verdict])
        )

        def alternate_resets(sent_total, packet):
            if sent_total % 1_000 == 0:
                side = sender if (sent_total // 1_000) % 2 else receiver
                side.reset(down_for=200e-6)

        def replay_on_wake():
            edge = receiver.right_edge
            harness.adversary.replay_range(edge - 255, edge, rate=1e7)

        sender.add_send_listener(alternate_resets)
        receiver.add_resume_listener(replay_on_wake)
        sender.start_traffic(count=5_000)
        harness.run()
        assert list(receiver.verdict_counts) == list(Verdict)
        assert all(receiver.verdict_counts.values())
        assert receiver.verdict_counts == dict(seen)
        assert receiver.delivered_total == sum(
            n for v, n in seen.items() if v.accepted
        )
        with pytest.raises(AttributeError):
            receiver.verdict_counts = {}
