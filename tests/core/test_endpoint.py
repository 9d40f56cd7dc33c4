"""The endpoint lifecycle shared by p and q.

An endpoint has at most one queued recovery step.  A reset cancels it,
so a recovery that a later reset interrupts never resumes, and an
explicit wake cancels a pending timed wake.  Bad input is refused
before anything changes.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import build_protocol
from repro.ipsec.costs import PAPER_COSTS, CostModel
from repro.sim.trace import NULL_TRACE

#: One second a send, a SAVE and a FETCH: every step is easy to place.
ONE = CostModel(t_save=1.0, t_send=1.0, t_fetch=1.0)

#: The six recovery paths: (variant, skip_wake_save, side), and when a
#: wake at 10 s resumes on each (FETCH, then the wake SAVE if any).
PATHS = [
    ("savefetch", False, "sender", 12.0),
    ("savefetch", False, "receiver", 12.0),
    ("ceiling", False, "sender", 11.0),
    ("ceiling", False, "receiver", 11.0),
    ("savefetch", True, "sender", 11.0),
    ("savefetch", True, "receiver", 11.0),
]
PATH_IDS = [f"{v}-{side}{'-skip_wake_save' if skip else ''}"
            for v, skip, side, _ in PATHS]


def pair(variant: str = "savefetch", skip_wake_save: bool = False, **kwargs):
    kwargs.setdefault("costs", ONE)
    return build_protocol(variant=variant, skip_wake_save=skip_wake_save,
                          trace=NULL_TRACE, **kwargs)


def resumed_value(record):
    return getattr(record, "resumed_seq", getattr(record, "resumed_right_edge", None))


@pytest.mark.parametrize("variant, skip, side, resumes_at", PATHS, ids=PATH_IDS)
def test_a_reset_during_the_fetch_cancels_that_recovery(
    variant, skip, side, resumes_at
):
    harness = pair(variant, skip)
    endpoint = getattr(harness, side)
    resumes = []
    endpoint.add_resume_listener(lambda: resumes.append(harness.engine.now))
    sent = []
    harness.sender.add_send_listener(
        lambda total, packet: sent.append(harness.engine.now))
    harness.sender.start_traffic(count=30)
    harness.run(until=3.0)
    endpoint.reset(down_for=0.0)
    harness.run(until=3.5)  # halfway through the post-wake FETCH
    endpoint.reset(down_for=None)
    harness.run(until=10.0)

    assert not endpoint.is_up and endpoint.wait
    first = endpoint.reset_records[0]
    assert first.resume_time is None and resumed_value(first) is None
    assert resumes == []

    sent_before_wake = len(sent)
    endpoint.wake()
    harness.run()
    assert endpoint.is_up and not endpoint.wait
    assert resumes == [resumes_at]
    second = endpoint.reset_records[1]
    assert second.resume_time == resumes_at
    assert first.resume_time is None
    if side == "sender":
        # Nothing goes out before the sender's own recovery ends (for
        # SAVE/FETCH: its own wake SAVE commits).
        assert min(sent[sent_before_wake:]) > resumes_at
    assert harness.engine.pending_events == 0


@pytest.mark.parametrize("down_sends", [0, 5, 10, 20])
def test_a_receiver_reset_during_the_fetch_accepts_no_replay(down_sends):
    # Paper costs, a lossless FIFO pair: the receiver resets after 2,000
    # of 4,000 sends and again halfway through the post-wake FETCH, and
    # the adversary replays the recent range at the second resume.  An
    # aborted recovery that still resumed would set r to the leaped
    # value, deliver past it, and the real resume would then reopen the
    # numbers in between.
    harness = pair(costs=PAPER_COSTS, seed=3, with_adversary=True)
    receiver, engine = harness.receiver, harness.engine

    def on_send(total, packet):
        if total == 2000:
            receiver.reset(0.0)
            engine.call_later(PAPER_COSTS.t_fetch / 2, receiver.reset,
                              down_sends * PAPER_COSTS.t_send)

    def replay():
        if len(receiver.reset_records) == 2:
            harness.adversary.replay_range(1900, 2200)

    harness.sender.add_send_listener(on_send)
    receiver.add_resume_listener(replay)
    harness.sender.start_traffic(count=4000)
    harness.run()
    assert harness.adversary.injections > 0
    assert harness.score(check_bounds=False).replays_accepted == 0


@pytest.mark.parametrize("variant, skip, side, _", PATHS, ids=PATH_IDS)
def test_a_second_reset_while_down_sets_the_wake(variant, skip, side, _):
    harness = pair(variant, skip)
    endpoint = getattr(harness, side)
    endpoint.reset(down_for=1.0)
    harness.run(until=0.5)
    endpoint.reset(down_for=5.0)  # the host wakes 5 s from now, not at 1 s
    harness.run()
    assert [r.wake_time for r in endpoint.reset_records] == [None, 5.5]


@pytest.mark.parametrize("variant, skip, side, _", PATHS, ids=PATH_IDS)
def test_an_explicit_wake_cancels_the_timed_one(variant, skip, side, _):
    harness = pair(variant, skip)
    endpoint = getattr(harness, side)
    endpoint.reset(down_for=5.0)
    harness.run(until=1.0)
    endpoint.wake()
    harness.run(until=1.5)
    endpoint.reset(down_for=None)  # down until the next wake()
    harness.run()
    assert not endpoint.is_up
    assert [r.wake_time for r in endpoint.reset_records] == [1.0, None]
    endpoint.wake()
    harness.run()
    assert endpoint.is_up and not endpoint.wait


@pytest.mark.parametrize("down_for", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("variant", ["savefetch", "ceiling", "unprotected"])
@pytest.mark.parametrize("side", ["sender", "receiver"])
def test_reset_refuses_a_bad_down_for_before_changing_anything(
    side, variant, down_for
):
    harness = pair(variant, k_p=2, k_q=2)
    endpoint = getattr(harness, side)
    harness.sender.start_traffic(count=10)
    harness.run(until=2.5)
    store = getattr(endpoint, "store", None)
    in_flight = store is not None and store.save_in_flight
    with pytest.raises(ValueError) as refused:
        endpoint.reset(down_for)
    assert endpoint.reset_records == []
    assert endpoint.is_up and not endpoint.wait
    if store is not None:
        assert store.save_in_flight == in_flight and store.saves_aborted == 0
    assert "down_for" in str(refused.value)
    harness.run()
    # The traffic clock kept ticking: every attempt went out.
    assert harness.sender.sent_total == 10
    assert harness.sender.sends_suppressed == 0
