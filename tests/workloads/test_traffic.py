"""Tests for the bursty traffic clock."""

import pytest

from repro.core.sender import UnprotectedSender
from repro.ipsec.costs import CostModel
from repro.net.link import Link
from repro.workloads.traffic import BurstyTraffic

FAST = CostModel(t_save=100e-6, t_send=4e-6)


@pytest.fixture
def sender(engine):
    received = []
    link = Link(engine, "link", sink=received.append)
    sender = UnprotectedSender(engine, "p", link, costs=FAST)
    sender.received = received  # type: ignore[attr-defined]
    return sender


class TestBursty:
    def test_on_off_pattern(self, engine, sender):
        traffic = BurstyTraffic(
            engine, sender, burst_len=5, burst_interval=0.001, idle_time=0.1
        )
        traffic.start(count=10)
        engine.run(until=10.0)
        times = [m.sent_at for m in sender.received]
        assert len(times) == 10
        # A long idle gap separates the two bursts of five.
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert sum(1 for g in gaps if g > 0.05) == 1

    def test_stop(self, engine, sender):
        traffic = BurstyTraffic(
            engine, sender, burst_len=10, burst_interval=0.001, idle_time=0.1
        )
        traffic.start()
        engine.run(until=0.0055)
        traffic.stop()
        engine.run(until=1.0)
        assert len(sender.received) == 5

    def test_attempts_counted_even_when_suppressed(self, engine, sender):
        traffic = BurstyTraffic(
            engine, sender, burst_len=2, burst_interval=0.001, idle_time=0.01
        )
        sender.reset(down_for=None)  # host down: sends suppressed
        traffic.start(count=3)
        engine.run(until=1.0)
        assert traffic.attempts == 3
        assert sender.received == []

    def test_validation(self, engine, sender):
        with pytest.raises(ValueError):
            BurstyTraffic(engine, sender, burst_len=0, burst_interval=1, idle_time=1)

    def test_burst_len_must_be_an_int(self, engine, sender):
        with pytest.raises(TypeError, match="burst_len"):
            BurstyTraffic(engine, sender, burst_len=2.5, burst_interval=1, idle_time=1)
