"""Tests for repro.net.adversary."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recovery import ResetNotice
from repro.net.adversary import ReplayAdversary
from repro.net.link import Link
from repro.net.message import Message
from repro.sim.engine import Engine
from repro.sim.trace import NULL_TRACE
from repro.util.rng import make_rng


def setup(engine):
    received = []
    link = Link(engine, "link", sink=received.append)
    adversary = ReplayAdversary(engine, link, seed=0)
    return link, adversary, received


class TestRecording:
    def test_records_legitimate_traffic(self, engine):
        link, adversary, _ = setup(engine)
        for seq in range(3):
            link.send(Message(seq=seq))
        engine.run()
        assert [m.seq for m in adversary.recorded] == [0, 1, 2]

    def test_does_not_record_injections(self, engine):
        link, adversary, _ = setup(engine)
        link.send(Message(seq=1))
        engine.run()
        adversary.inject_now(adversary.recorded[0])
        engine.run()
        assert len(adversary.recorded) == 1

    def test_records_even_lost_packets(self, engine):
        from repro.net.loss import DeterministicLoss

        received = []
        link = Link(engine, "link", sink=received.append, loss=DeterministicLoss([0]))
        adversary = ReplayAdversary(engine, link, seed=0)
        link.send(Message(seq=1))
        engine.run()
        assert received == []  # dropped
        assert len(adversary.recorded) == 1  # but the on-path attacker saw it

    def test_highest_seq_packet(self, engine):
        link, adversary, _ = setup(engine)
        for seq in [3, 9, 5]:
            link.send(Message(seq=seq))
        engine.run()
        best = adversary.highest_seq_packet()
        assert best is not None and best.seq == 9

    def test_highest_seq_empty(self, engine):
        _, adversary, _ = setup(engine)
        assert adversary.highest_seq_packet() is None


class TestStrategies:
    def test_replay_history_in_order(self, engine):
        link, adversary, received = setup(engine)
        for seq in range(4):
            link.send(Message(seq=seq))
        engine.run()
        received.clear()
        count = adversary.replay_history()
        engine.run()
        assert count == 4
        assert [m.seq for m in received] == [0, 1, 2, 3]
        assert adversary.injections == 4

    def test_replay_history_limit(self, engine):
        link, adversary, received = setup(engine)
        for seq in range(4):
            link.send(Message(seq=seq))
        engine.run()
        received.clear()
        assert adversary.replay_history(limit=2) == 2
        engine.run()
        assert [m.seq for m in received] == [0, 1]

    def test_replay_history_rate_paces_injections(self, engine):
        link, adversary, received = setup(engine)
        times = []
        link.sink = lambda m: times.append(engine.now)
        for seq in range(3):
            link.send(Message(seq=seq))
        engine.run()
        times.clear()
        adversary.replay_history(rate=10.0, start_delay=1.0)
        engine.run()
        assert times == [1.0, 1.1, 1.2]

    def test_replay_max(self, engine):
        link, adversary, received = setup(engine)
        for seq in [1, 7, 3]:
            link.send(Message(seq=seq))
        engine.run()
        received.clear()
        assert adversary.replay_max() == 1
        engine.run()
        assert [m.seq for m in received] == [7]

    def test_replay_max_nothing_recorded(self, engine):
        _, adversary, _ = setup(engine)
        assert adversary.replay_max() == 0

    def test_replay_range(self, engine):
        link, adversary, received = setup(engine)
        for seq in range(10):
            link.send(Message(seq=seq))
        engine.run()
        received.clear()
        count = adversary.replay_range(3, 6)
        engine.run()
        assert count == 4
        assert [m.seq for m in received] == [3, 4, 5, 6]

    def test_replay_random_count(self, engine):
        link, adversary, received = setup(engine)
        for seq in range(5):
            link.send(Message(seq=seq))
        engine.run()
        received.clear()
        assert adversary.replay_random(7) == 7
        engine.run()
        assert len(received) == 7
        assert all(0 <= m.seq < 5 for m in received)

    def test_replay_random_empty_recording(self, engine):
        _, adversary, _ = setup(engine)
        assert adversary.replay_random(3) == 0


class _ReprCounted(Message):
    """A message that counts the calls to its ``repr``."""

    __slots__ = ()
    calls = 0

    def __repr__(self) -> str:
        type(self).calls += 1
        return super().__repr__()


class TestInjectionTrace:
    def replay(self, engine):
        _ReprCounted.calls = 0
        link, adversary, received = setup(engine)
        link.send(_ReprCounted(seq=1))
        engine.run()
        assert adversary.replay_history() == 1
        assert adversary.replay_max() == 1
        adversary.inject_now(adversary.recorded[0])
        engine.run()
        assert len(received) == 4
        return adversary

    def test_untraced_injection_never_builds_the_repr(self):
        adversary = self.replay(Engine(trace=NULL_TRACE))
        assert adversary.injections == 3
        assert _ReprCounted.calls == 0

    def test_traced_injection_records_the_repr(self, engine):
        adversary = self.replay(engine)
        records = engine.trace.filter(source="adversary", kind="inject")
        assert [r.detail["packet"] for r in records] == (
            [repr(adversary.recorded[0])] * 3
        )


class TestCounts:
    """``limit`` and ``count`` are non-negative ints, or nothing is scheduled."""

    def recorded(self, engine, n=5):
        link, adversary, _ = setup(engine)
        for seq in range(n):
            link.send(Message(seq=seq))
        engine.run()
        return adversary

    @pytest.mark.parametrize("limit", [-1, -4])
    def test_negative_limit_rejected(self, engine, limit):
        adversary = self.recorded(engine)
        with pytest.raises(ValueError, match="limit must be >= 0"):
            adversary.replay_history(limit=limit)
        assert engine.pending_events == 0

    @pytest.mark.parametrize("limit", [2.5, True])
    def test_non_int_limit_rejected(self, engine, limit):
        adversary = self.recorded(engine)
        with pytest.raises(TypeError, match="limit must be int"):
            adversary.replay_history(limit=limit)
        assert engine.pending_events == 0

    def test_limit_zero_and_past_the_record(self, engine):
        adversary = self.recorded(engine)
        assert adversary.replay_history(limit=0) == 0
        assert adversary.replay_history(limit=9) == 5

    @pytest.mark.parametrize("count", [2.5, True])
    def test_non_int_count_rejected(self, engine, count):
        adversary = self.recorded(engine)
        with pytest.raises(TypeError, match="count must be int"):
            adversary.replay_random(count)
        assert engine.pending_events == 0

    def test_negative_count_rejected(self, engine):
        adversary = self.recorded(engine)
        with pytest.raises(ValueError, match="count must be >= 0"):
            adversary.replay_random(-1)


# ----------------------------------------------------------------------
# The bisected record against the scan it replaced
# ----------------------------------------------------------------------
def scan_range(pairs, lo, hi):
    """``replay_range``'s record scan before the record could be bisected,
    over the ``(time, packet)`` pairs it recorded then."""

    def int_seq(packet):
        seq = getattr(packet, "seq", None)
        return seq if isinstance(seq, int) else None

    return [
        packet
        for _time, packet in pairs
        if (seq := int_seq(packet)) is not None and lo <= seq <= hi
    ]


def draw_random(pairs, count, rng):
    """``replay_random``'s draws before the record held bare packets."""
    if not pairs or count == 0:
        return []
    return [rng.choice(pairs)[1] for _ in range(count)]


def recording(seqs, seed=0):
    """An adversary that has seen one packet per entry of ``seqs``; a
    ``None`` entry is a packet without a sequence number."""
    engine = Engine(trace=NULL_TRACE)
    link = Link(engine, "link", sink=lambda packet: None)
    adversary = ReplayAdversary(engine, link, seed=seed)
    for seq in seqs:
        link.send(
            ResetNotice(origin="p", sent_at=0.0) if seq is None else Message(seq=seq)
        )
    return engine, link, adversary


def replayed(engine, link, replay):
    """The packets ``replay()`` schedules, in injection order."""
    out = []
    link.add_tap(lambda time, packet, injected: injected and out.append(packet))
    count = replay()
    engine.run()
    assert count == len(out)
    return out


def same_objects(got, expected):
    return len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


SEQS = st.integers(min_value=0, max_value=2**70)
RECORDS = st.one_of(
    # A SAVE/FETCH sender's record: non-decreasing, repeats allowed.
    st.lists(SEQS, max_size=40).map(sorted),
    st.lists(st.integers(0, 4), max_size=40).map(sorted),
    st.lists(st.integers(2**64 - 3, 2**64 + 3), max_size=20).map(sorted),
    # The unprotected sender reset: 1..a, then 1..b again.
    st.tuples(st.integers(1, 20), st.integers(1, 20)).map(
        lambda ab: [*range(1, ab[0] + 1), *range(1, ab[1] + 1)]
    ),
    # Anything, packets without a sequence number included.
    st.lists(st.one_of(SEQS, st.integers(0, 6), st.none()), max_size=40),
)


class TestBisectedRecord:
    @settings(max_examples=300, deadline=None)
    @given(record=RECORDS, data=st.data())
    def test_replay_range_replays_what_the_scan_did(self, record, data):
        edges = sorted({s + d for s in record if s is not None for d in (-1, 0, 1)})
        bound = st.one_of(st.integers(min_value=-2, max_value=2**70 + 2),
                          *([st.sampled_from(edges)] if edges else []))
        lo, hi = data.draw(bound, label="lo"), data.draw(bound, label="hi")
        engine, link, adversary = recording(record)
        in_order = None not in record and all(
            a <= b for a, b in zip(record, record[1:])
        )
        assert adversary._in_order is in_order
        expected = scan_range([(0.0, packet) for packet in adversary.recorded], lo, hi)
        got = replayed(engine, link, lambda: adversary.replay_range(lo, hi))
        assert same_objects(got, expected)

    def test_empty_and_inverted_ranges(self):
        engine, link, adversary = recording([1, 2, 2, 3])
        assert replayed(engine, link, lambda: adversary.replay_range(3, 2)) == []
        engine, link, adversary = recording([])
        assert replayed(engine, link, lambda: adversary.replay_range(0, 9)) == []

    @settings(max_examples=100, deadline=None)
    @given(
        record=st.lists(st.one_of(SEQS, st.none()), max_size=30),
        count=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_seeded_replay_random_draws_as_before(self, record, count, seed):
        engine, link, adversary = recording(record, seed=seed)
        pairs = [(0.0, packet) for packet in adversary.recorded]
        expected = draw_random(pairs, count, make_rng(seed))
        got = replayed(engine, link, lambda: adversary.replay_random(count))
        assert same_objects(got, expected)
