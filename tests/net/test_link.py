"""Tests for repro.net.link."""

from repro.net.delay import FixedDelay, UniformJitterDelay
from repro.net.icmp import IcmpType
from repro.net.link import Link
from repro.net.loss import BernoulliLoss, DeterministicLoss
from repro.net.message import Message


def collect_link(engine, **kwargs):
    received = []
    link = Link(engine, "link", sink=received.append, **kwargs)
    return link, received


class TestDelivery:
    def test_delivers_in_order_zero_delay(self, engine):
        link, received = collect_link(engine)
        for seq in range(3):
            link.send(Message(seq=seq))
        engine.run()
        assert [m.seq for m in received] == [0, 1, 2]
        assert link.delivered == 3

    def test_fixed_delay_applied(self, engine):
        link, received = collect_link(engine, delay=FixedDelay(0.5))
        times = []
        link.sink = lambda m: times.append(engine.now)
        link.send(Message(seq=1))
        engine.run()
        assert times == [0.5]

    def test_jitter_without_fifo_can_reorder(self, engine):
        link, received = collect_link(
            engine, delay=UniformJitterDelay(0.0, 1.0), seed=3, fifo=False
        )
        for seq in range(50):
            link.send(Message(seq=seq))
        engine.run()
        order = [m.seq for m in received]
        assert sorted(order) == list(range(50))
        assert order != list(range(50))  # some reorder occurred

    def test_fifo_clamps_reorder(self, engine):
        link, received = collect_link(
            engine, delay=UniformJitterDelay(0.0, 1.0), seed=3, fifo=True
        )
        for seq in range(50):
            link.send(Message(seq=seq))
        engine.run()
        assert [m.seq for m in received] == list(range(50))


class TestLoss:
    def test_deterministic_loss_drops(self, engine):
        link, received = collect_link(engine, loss=DeterministicLoss([0, 2]))
        for seq in range(4):
            link.send(Message(seq=seq))
        engine.run()
        assert [m.seq for m in received] == [1, 3]
        assert link.dropped == 2

    def test_loss_traced(self, engine):
        link, _ = collect_link(engine, loss=BernoulliLoss(1.0))
        link.send(Message(seq=1))
        engine.run()
        assert engine.trace.count(source="link", kind="drop") == 1


class TestTaps:
    def test_tap_sees_all_offers(self, engine):
        link, _ = collect_link(engine, loss=DeterministicLoss([0]))
        seen = []
        link.add_tap(lambda t, p, injected: seen.append((p.seq, injected)))
        link.send(Message(seq=0))  # dropped, but tapped
        link.send(Message(seq=1))
        link.inject(Message(seq=0))
        engine.run()
        assert seen == [(0, False), (1, False), (0, True)]

    def test_remove_tap(self, engine):
        link, _ = collect_link(engine)
        seen = []
        tap = lambda t, p, injected: seen.append(p.seq)  # noqa: E731
        link.add_tap(tap)
        link.send(Message(seq=1))
        link.remove_tap(tap)
        link.send(Message(seq=2))
        engine.run()
        assert seen == [1]


class TestInjection:
    def test_injected_counted_and_delivered(self, engine):
        link, received = collect_link(engine)
        link.inject(Message(seq=9))
        engine.run()
        assert link.injected == 1
        assert [m.seq for m in received] == [9]


class TestAvailability:
    def test_down_destination_drops_and_icmps(self, engine):
        icmps = []
        up = {"value": True}
        link, received = collect_link(
            engine,
            availability=lambda: up["value"],
            icmp_sink=icmps.append,
        )
        link.send(Message(seq=1))
        engine.run()
        up["value"] = False
        link.send(Message(seq=2))
        engine.run()
        assert [m.seq for m in received] == [1]
        assert link.undeliverable == 1
        assert len(icmps) == 1
        assert icmps[0].icmp_type is IcmpType.DESTINATION_UNREACHABLE
        assert icmps[0].about.seq == 2

    def test_no_icmp_sink_just_drops(self, engine):
        link, received = collect_link(engine, availability=lambda: False)
        link.send(Message(seq=1))
        engine.run()
        assert received == []
        assert link.undeliverable == 1

