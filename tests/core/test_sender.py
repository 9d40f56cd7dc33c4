"""Tests for the sender endpoints (Sections 2 and 4, process p)."""

import pytest

from repro.core.audit import DeliveryAuditor
from repro.core.sender import SaveFetchSender, UnprotectedSender
from repro.ipsec.costs import CostModel
from repro.net.link import Link


@pytest.fixture
def costs():
    return CostModel(t_save=100e-6, t_send=4e-6, t_fetch=0.0)


@pytest.fixture
def wire(engine):
    received = []
    link = Link(engine, "link", sink=received.append)
    return link, received


class TestUnprotectedSender:
    def test_sends_increasing_seqs_from_one(self, engine, wire, costs):
        link, received = wire
        sender = UnprotectedSender(engine, "p", link, costs=costs)
        sender.send_burst(3)
        engine.run()
        assert [m.seq for m in received] == [1, 2, 3]
        assert sender.s == 4

    def test_reset_restarts_at_one(self, engine, wire, costs):
        link, received = wire
        sender = UnprotectedSender(engine, "p", link, costs=costs)
        sender.send_burst(5)
        sender.reset(down_for=0.01)
        engine.run()
        sender.send_burst(2)
        engine.run()
        assert [m.seq for m in received][-2:] == [1, 2]
        record = sender.reset_records[0]
        assert record.last_used_seq == 5
        assert record.fetched is None
        assert record.resumed_seq == 1

    def test_suppressed_while_down(self, engine, wire, costs):
        link, _ = wire
        sender = UnprotectedSender(engine, "p", link, costs=costs)
        sender.reset(down_for=None)
        assert not sender.send_one()
        assert sender.sends_suppressed == 1
        sender.wake()
        assert sender.send_one()

    def test_wake_idempotent(self, engine, wire, costs):
        link, _ = wire
        sender = UnprotectedSender(engine, "p", link, costs=costs)
        sender.wake()  # already up: no-op
        assert sender.is_up


class TestTrafficClocking:
    def test_start_traffic_count_limits_attempts(self, engine, wire, costs):
        link, received = wire
        sender = UnprotectedSender(engine, "p", link, costs=costs)
        sender.start_traffic(count=10)
        engine.run(until=1.0)
        assert len(received) == 10

    def test_default_interval_is_t_send(self, engine, wire, costs):
        link, received = wire
        sender = UnprotectedSender(engine, "p", link, costs=costs)
        sender.start_traffic(count=5)
        engine.run(until=1.0)
        assert engine.now >= 5 * costs.t_send

    def test_stop_traffic(self, engine, wire, costs):
        link, received = wire
        sender = UnprotectedSender(engine, "p", link, costs=costs)
        sender.start_traffic()
        engine.run(until=10 * costs.t_send)
        sender.stop_traffic()
        count = len(received)
        engine.run(until=1.0)
        assert len(received) == count

    def test_send_listener(self, engine, wire, costs):
        link, _ = wire
        sender = UnprotectedSender(engine, "p", link, costs=costs)
        calls = []
        sender.add_send_listener(lambda total, packet: calls.append(total))
        sender.send_burst(3)
        assert calls == [1, 2, 3]


class TestSaveFetchSenderSaves:
    def test_background_save_every_k(self, engine, wire, costs):
        link, _ = wire
        sender = SaveFetchSender(engine, "p", link, k=25, costs=costs)
        sender.send_burst(24)
        assert sender.store.saves_started == 0
        sender.send_burst(1)  # s reaches 26 = 25 + lst(1)
        assert sender.store.saves_started == 1
        assert sender.lst == 26
        sender.send_burst(24)
        assert sender.store.saves_started == 1
        sender.send_burst(1)
        assert sender.store.saves_started == 2

    def test_saves_do_not_block_sending(self, engine, wire, costs):
        link, received = wire
        sender = SaveFetchSender(engine, "p", link, k=25, costs=costs)
        sender.start_traffic(count=60)
        engine.run(until=1.0)
        assert len(received) == 60  # traffic continued through both saves

    def test_rejects_bad_k(self, engine, wire, costs):
        link, _ = wire
        with pytest.raises(ValueError):
            SaveFetchSender(engine, "p", link, k=0, costs=costs)
        # Not truncated: k=0.5 would run with K=0.
        for bad in (0.5, 25.7, True):
            with pytest.raises(TypeError, match="k must be int"):
                SaveFetchSender(engine, "p", link, k=bad, costs=costs)

    def test_rejects_negative_leap(self, engine, wire, costs):
        link, _ = wire
        with pytest.raises(ValueError):
            SaveFetchSender(engine, "p", link, k=5, leap_factor=-1, costs=costs)


class TestSaveFetchSenderRecovery:
    def test_wake_fetches_and_leaps(self, engine, wire, costs):
        link, received = wire
        sender = SaveFetchSender(engine, "p", link, k=25, costs=costs)
        sender.start_traffic(count=30)
        engine.run(until=1.0)  # save(26) committed
        sender.reset(down_for=0.001)
        engine.run(until=1.1)
        record = sender.reset_records[0]
        assert record.fetched == 26
        assert record.resumed_seq == 26 + 50
        assert sender.s == 76
        assert sender.lst == 76

    def test_resume_waits_for_wake_save(self, engine, wire, costs):
        """'it will wait for the SAVE to finish before it sends'."""
        link, _ = wire
        sender = SaveFetchSender(engine, "p", link, k=25, costs=costs)
        sender.send_burst(30)
        engine.run(until=1.0)
        sender.reset(down_for=0.0)
        engine.run(max_events=1)  # the wake event only
        assert sender.is_up
        assert sender.wait  # still recovering: wake save in flight
        assert not sender.send_one()
        engine.run(until=2.0)
        assert not sender.wait
        record = sender.reset_records[0]
        assert record.resume_time == pytest.approx(
            record.wake_time + costs.t_save
        )

    def test_wake_save_persisted_before_use(self, engine, wire, costs):
        link, _ = wire
        sender = SaveFetchSender(engine, "p", link, k=25, costs=costs)
        sender.send_burst(30)
        engine.run(until=1.0)
        sender.reset(down_for=0.0)
        engine.run(until=2.0)
        assert sender.store.committed_value == sender.s

    def test_gap_bounded_by_2k_when_sized(self, engine, wire, costs):
        link, _ = wire
        sender = SaveFetchSender(engine, "p", link, k=50, costs=costs)
        sender.start_traffic(count=137)
        engine.run(until=1.0)
        sender.reset(down_for=0.001)
        engine.run(until=2.0)
        record = sender.reset_records[0]
        assert record.gap is not None and record.gap <= 100
        assert record.lost_seqnums is not None
        assert 0 <= record.lost_seqnums <= 100

    def test_no_seq_reused_across_reset(self, engine, wire, costs):
        link, received = wire
        sender = SaveFetchSender(engine, "p", link, k=50, costs=costs)
        sender.start_traffic(count=130)
        engine.run(until=1.0)
        sender.reset(down_for=0.001)
        engine.run(until=1.5)
        sender.start_traffic(count=130)
        engine.run(until=3.0)
        seqs = [m.seq for m in received]
        assert len(seqs) == len(set(seqs))

    def test_skip_wake_save_ablation_resumes_without_save(
        self, engine, wire, costs
    ):
        link, _ = wire
        sender = SaveFetchSender(
            engine, "p", link, k=25, costs=costs, skip_wake_save=True
        )
        sender.send_burst(30)
        engine.run(until=1.0)
        committed_before = sender.store.committed_value
        sender.reset(down_for=0.0)
        engine.run(until=2.0)
        assert not sender.wait
        assert sender.store.committed_value == committed_before  # nothing saved

    def test_resume_listener_fires(self, engine, wire, costs):
        link, _ = wire
        sender = SaveFetchSender(engine, "p", link, k=25, costs=costs)
        resumed = []
        sender.add_resume_listener(lambda: resumed.append(engine.now))
        sender.send_burst(30)
        engine.run(until=1.0)
        sender.reset(down_for=0.0)
        engine.run(until=2.0)
        assert len(resumed) == 1

    def test_crash_aborts_background_save(self, engine, wire, costs):
        link, _ = wire
        sender = SaveFetchSender(engine, "p", link, k=25, costs=costs)
        sender.send_burst(26)  # save(27) now in flight
        assert sender.store.save_in_flight
        record = sender.reset(down_for=None)
        assert record.save_in_flight
        assert sender.store.saves_aborted == 1

    def test_auditor_registration(self, engine, wire, costs):
        link, _ = wire
        auditor = DeliveryAuditor()
        sender = SaveFetchSender(
            engine, "p", link, k=25, costs=costs, auditor=auditor
        )
        sender.send_burst(3)
        assert auditor.report().fresh_sent == 3

