"""The endpoint lifecycle shared by p and q.

An endpoint has at most one queued recovery step.  A reset cancels it,
so a recovery that a later reset interrupts never resumes, and an
explicit wake cancels a pending timed wake.  Bad input is refused
before anything changes.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import build_protocol
from repro.gateway.store import SharedStore
from repro.ipsec.costs import PAPER_COSTS, CostModel
from repro.sim.engine import Engine
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


#: A SAVE and a FETCH of one second against four sends a second: a wake
#: buffers several packets, and a ceiling raise holds a few.
DRAIN_COSTS = CostModel(t_save=1.0, t_send=0.25, t_fetch=1.0)


def test_a_reset_during_the_wake_drain_loses_the_rest_with_the_host():
    harness = pair(k_p=8, k_q=8, costs=DRAIN_COSTS)
    receiver = harness.receiver
    drained, down, resumes = [], [], []

    def on_process(packet, verdict):
        if not receiver.is_up:
            down.append(packet.seq)
        elif receiver.reset_records[-1:] and receiver.reset_records[0].resume_time:
            drained.append(packet.seq)
            if len(drained) == 2:
                receiver.reset(None)  # a second reset, inside the drain

    receiver.add_process_listener(on_process)
    receiver.add_resume_listener(
        lambda: resumes.append((harness.engine.now, receiver.is_up)))
    harness.sender.start_traffic(count=40)
    harness.engine.call_at(2.0, receiver.reset, 0.0)
    harness.run()

    first = receiver.reset_records[0]
    assert first.buffered_during_wake > 2
    assert len(drained) == 2
    assert down == []  # the rest of the buffer went down with the host
    assert resumes == []  # the interrupted recovery notifies no one
    assert not receiver.is_up and receiver.wait


def test_a_reset_during_the_ceiling_raise_drain_delivers_nothing_while_down():
    harness = pair("ceiling", k_p=8, k_q=2, costs=DRAIN_COSTS)
    receiver = harness.receiver
    processed = []

    def on_process(packet, verdict):
        processed.append((packet.seq, receiver.is_up, verdict.value))
        if packet.seq == 2:
            # seq 2 crossed the first ceiling; the raise's commit drains
            # it first, ahead of the packets held behind it.
            assert receiver.buffered_for_ceiling >= 3
            receiver.reset(None)

    receiver.add_process_listener(on_process)
    harness.sender.start_traffic(count=40)
    harness.run()

    assert [seq for seq, _, _ in processed] == [1, 2]
    assert all(up for _, up, _ in processed)
    assert receiver.delivered_total == 2


@pytest.mark.parametrize("variant", ["savefetch", "ceiling"])
def test_each_wake_waits_for_its_own_fetch_on_a_shared_store(variant):
    # Four pairs on one device, every receiver reset at once: the four
    # FETCHes queue back to back, and no receiver resumes before its
    # own FETCH slot ends (for SAVE/FETCH, its wake SAVE follows).
    engine = Engine(trace=NULL_TRACE)
    shared = SharedStore(engine, costs=PAPER_COSTS)
    ceiling = variant == "ceiling"
    pairs = [
        build_protocol(
            variant=variant, costs=PAPER_COSTS, engine=engine,
            sender_name=f"p{index}", receiver_name=f"q{index}",
            sender_store=shared.client(f"p{index}", 26 if ceiling else 1),
            receiver_store=shared.client(f"q{index}", 25 if ceiling else 0),
        )
        for index in range(4)
    ]
    for harness in pairs:
        harness.sender.start_traffic(count=200)

    def reset_every_receiver():
        for harness in pairs:
            harness.receiver.reset(0.0)

    engine.call_at(0.005, reset_every_receiver)
    engine.run()
    waits = []
    for harness in pairs:
        record = harness.receiver.reset_records[0]
        waits.append(record.resume_time - record.wake_time)
    # Each receiver waits behind the FETCHes queued ahead of its own.
    assert waits == sorted(set(waits))
    if ceiling:
        # Nothing else holds the device: the i-th FETCH ends i slots on.
        slots = [(index + 1) * PAPER_COSTS.t_fetch for index in range(4)]
        assert waits == pytest.approx(slots)
        assert shared.max_fetch_wait == pytest.approx(slots[-2])
