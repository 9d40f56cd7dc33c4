"""Tests for run scoring / convergence reports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import score_run
from repro.core.protocol import build_protocol
from repro.core.receiver import SaveFetchReceiver
from repro.faults import FaultEnv, Reset
from repro.ipsec.costs import CostModel
from repro.sim.trace import NULL_TRACE

COSTS = CostModel(t_save=100e-6, t_send=4e-6, t_fetch=0.0)


class TestScoring:
    def test_clean_run_converged(self):
        harness = build_protocol()
        harness.sender.start_traffic(count=100)
        harness.run(until=1.0)
        report = score_run(harness.auditor, harness.sender, harness.receiver)
        assert report.converged
        assert report.sender_resets == 0
        assert "CONVERGED" in report.summary()

    def test_gap_violation_detected(self):
        """Ablated leap (0) produces reuse, which the scorer flags."""
        harness = build_protocol(leap_factor=0)
        harness.sender.start_traffic(count=200)
        harness.engine.call_at(0.0003, harness.sender.reset, 0.0001)
        harness.run(until=1.0)
        report = harness.score()
        assert not report.converged
        assert any("reused" in v for v in report.bound_violations)

    def test_unprotected_not_held_to_bounds(self):
        harness = build_protocol(protected=False)
        harness.sender.start_traffic(count=200)
        harness.engine.call_at(0.0003, harness.sender.reset, 0.0001)
        harness.run(until=1.0)
        report = harness.score()
        # The unprotected sender reuses numbers, but the paper makes no
        # claim for it; the scorer records, it does not flag.
        assert report.sender_resets == 1
        assert not report.bound_violations

    def test_check_bounds_false_never_flags(self):
        harness = build_protocol(leap_factor=0)
        harness.sender.start_traffic(count=200)
        harness.engine.call_at(0.0003, harness.sender.reset, 0.0001)
        harness.run(until=1.0)
        report = harness.score(check_bounds=False)
        assert not report.bound_violations

    def test_time_to_converge_measured(self):
        harness = build_protocol()
        harness.sender.start_traffic(count=1000)
        harness.engine.call_at(0.001, harness.receiver.reset, 0.0002)
        harness.run(until=1.0)
        report = harness.score()
        assert len(report.time_to_converge) == 1
        assert report.time_to_converge[0] >= 0

    def test_summary_mentions_gaps(self):
        harness = build_protocol()
        harness.sender.start_traffic(count=300)
        harness.engine.call_at(0.0005, harness.sender.reset, 0.0001)
        harness.run(until=1.0)
        text = harness.score().summary()
        assert "sender gaps=" in text
        assert "lost seqnums per reset=" in text

    def test_partial_scoring_without_receiver(self):
        harness = build_protocol()
        harness.sender.start_traffic(count=100)
        harness.run(until=1.0)
        report = score_run(harness.auditor, sender=harness.sender, receiver=None)
        assert report.receiver_resets == 0


class TestTimeToConverge:
    def test_zero_length_receiver_reset_scores_from_the_wake(self):
        """The delivery that triggers a zero-length reset happened before
        the wake, in the same instant; it does not end the convergence.
        The receiver resumes after its synchronous SAVE (0.0002 s), and
        the first delivery after that is the convergence time."""
        harness = build_protocol(seed=3)
        Reset(side="receiver", after_sends=50).apply(FaultEnv.of(harness))
        harness.sender.start_traffic(count=400)
        harness.run()
        record = harness.receiver.reset_records[0]
        assert record.wake_time == record.reset_time
        assert harness.score().time_to_converge == [pytest.approx(0.0002)]
        assert record.first_delivery_time >= record.resume_time


#: A fault: (side, slot, down time).  ``"q@count"`` resets the receiver
#: after ``slot`` processed packets, inside the delivery that triggers it.
RESET = st.tuples(
    st.sampled_from(["p", "q", "both", "q@count"]),
    st.integers(min_value=0, max_value=120),
    st.sampled_from([0.0, 50e-6, 200e-6, 1e-3]),
)


@given(
    resets=st.lists(RESET, min_size=1, max_size=5),
    protected=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_first_delivery_time_is_the_first_delivery_after_the_wake(
    resets, protected
):
    harness = build_protocol(protected=protected, k_p=50, k_q=50, costs=COSTS,
                             seed=1, trace=NULL_TRACE)
    engine, receiver = harness.engine, harness.receiver
    # The oracle: deliveries and wakes in the order they happened.
    log = []
    receiver.on_deliver = lambda seq, payload: log.append(("deliver", engine.now))
    # Both the timed wake and an explicit wake() run ``_wake``.
    wake = receiver._wake

    def logged_wake():
        if not receiver.is_up:
            log.append(("wake", receiver.reset_records[-1]))
        wake()

    receiver._wake = logged_wake
    for side, slot, down in resets:
        if side == "q@count":
            Reset(side="receiver", after_sends=slot + 1, down_time=down).apply(
                FaultEnv.of(harness)
            )
            continue
        if side in ("p", "both"):
            engine.call_at(slot * 1e-4, harness.sender.reset, down)
        if side in ("q", "both"):
            engine.call_at(slot * 1e-4, receiver.reset, down)
    harness.sender.start_traffic(count=3_000)
    harness.run()

    expected = {}
    for index, (kind, entry) in enumerate(log):
        if kind == "wake":
            expected[id(entry)] = next(
                (time for kind, time in log[index + 1:] if kind == "deliver"),
                None,
            )
    for record in receiver.reset_records:
        assert record.first_delivery_time == expected.get(id(record))
        if (
            isinstance(receiver, SaveFetchReceiver)
            and record.resume_time is not None
            and record.first_delivery_time is not None
        ):
            # A packet buffered during the wake SAVE waits for the resume.
            assert record.first_delivery_time >= record.resume_time
    assert harness.score(check_bounds=False).time_to_converge == [
        record.first_delivery_time - record.wake_time
        for record in receiver.reset_records
        if record.first_delivery_time is not None
    ]
