"""Differential test of the sender's traffic clock.

The reference is the per-tick clock: a timer that allocates a fresh
event on every re-arm and keeps ticking through every outage, each tick
one attempt (suppressed while the host is down or ``wait`` holds).  The
sender's own clock pauses for an outage and counts the attempts it skips
at resume.  Twin pairs run one schedule, one per clock, and must agree on
everything but the engine's event count, which must fall by exactly the
attempts the paused clock skipped.

Every time here is a multiple of a quarter second, so float sums are
exact and resets, wakes, commits and ticks often share an instant: the
tie cases are drawn on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolHarness, build_protocol
from repro.ipsec.costs import CostModel
from repro.sim.trace import NULL_TRACE

QUARTER = 0.25
KINDS = ("savefetch", "unprotected", "ceiling")


class PerTickTimer:
    """The reference timer: a fresh event on every re-arm."""

    def __init__(self, engine: Any, interval: float, callback: Any) -> None:
        self.engine = engine
        self.interval = interval
        self.callback = callback
        self._event: Any = None
        self._stopped = True

    def start(self, first_delay: float) -> None:
        self._stopped = False
        self._event = self.engine.call_later(first_delay, self._tick)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        self._event = None
        self.callback()
        if not self._stopped and self._event is None:
            self._event = self.engine.call_later(self.interval, self._tick)


class PerTickClock:
    """The reference traffic clock: it never pauses, and every tick is
    an attempt through :meth:`~repro.core.sender.BaseSender.send_one`."""

    def __init__(self, sender: Any) -> None:
        self.sender = sender
        self.timer: PerTickTimer | None = None
        self.remaining: int | None = None

    def start_traffic(self, count: int | None, interval: float) -> None:
        self.stop_traffic()
        self.remaining = count
        self.timer = PerTickTimer(self.sender.engine, interval, self._tick)
        self.timer.start(first_delay=interval)

    def stop_traffic(self) -> None:
        if self.timer is not None:
            self.timer.stop()
            self.timer = None
        self.remaining = None

    def _tick(self) -> None:
        if self.remaining is not None:
            if self.remaining <= 0:
                self.stop_traffic()
                return
            self.remaining -= 1
        self.sender.send_one()


@dataclass
class Schedule:
    """One drawn run: a pair, its stream, its faults and its phases.

    ``listener_resets`` maps a sent count to the ``down_for`` of a reset
    made from the send listener (at a tick instant); ``timed_resets`` and
    ``timed_wakes`` are events queued before the first run; each phase
    runs to a horizon, then does one action from outside the run.
    """

    kind: str
    interval: float
    t_save: float
    t_fetch: float
    k: int
    count: int | None
    listener_resets: dict[int, float | None] = field(default_factory=dict)
    timed_resets: list[tuple[float, float | None]] = field(default_factory=list)
    timed_wakes: list[float] = field(default_factory=list)
    phases: list[tuple[float, Any]] = field(default_factory=list)


class Twin:
    """One side of the comparison: a pair driven by one of the clocks."""

    def __init__(self, schedule: Schedule, reference: bool) -> None:
        costs = CostModel(t_save=schedule.t_save, t_send=schedule.interval,
                          t_fetch=schedule.t_fetch)
        self.harness: ProtocolHarness = build_protocol(
            variant=schedule.kind, k_p=schedule.k, k_q=schedule.k,
            costs=costs, trace=NULL_TRACE,
        )
        self.engine = self.harness.engine
        self.sender = self.harness.sender
        self.clock: Any = PerTickClock(self.sender) if reference else self.sender
        self.interval = schedule.interval
        self.wire: list[tuple[int, float]] = []
        self.sender.add_send_listener(self._on_send)
        self._resets = dict(schedule.listener_resets)
        for at, down_for in schedule.timed_resets:
            self.engine.call_at(at, self.sender.reset, down_for)
        for at in schedule.timed_wakes:
            self.engine.call_at(at, self.sender.wake)

    def _on_send(self, sent_total: int, packet: Any) -> None:
        self.wire.append((packet.seq, packet.sent_at))
        if sent_total in self._resets:
            self.sender.reset(down_for=self._resets.pop(sent_total))

    def start(self, count: int | None) -> None:
        self.clock.start_traffic(count=count, interval=self.interval)

    def act(self, action: Any) -> None:
        if action == "wake":
            self.sender.wake()
        elif action == "stop":
            self.clock.stop_traffic()
        elif action is not None:
            self.start(action[1])

    def observed(self) -> dict[str, Any]:
        sender, receiver = self.sender, self.harness.receiver
        return {
            "now": self.engine.now,
            "wire": list(self.wire),
            "sent_total": sender.sent_total,
            "suppressed": sender.sends_suppressed,
            "s": sender.s,
            "resets": list(sender.reset_records),
            "verdicts": dict(receiver.verdict_counts),
        }


def run_twins(schedule: Schedule) -> tuple[Twin, Twin]:
    """Run ``schedule`` on both clocks, comparing after every run."""
    new, ref = Twin(schedule, reference=False), Twin(schedule, reference=True)
    seen: list[tuple[dict[str, Any], dict[str, Any]]] = []
    bounded = schedule.count is not None
    for twin in (new, ref):
        twin.start(schedule.count)
    for horizon, action in schedule.phases:
        for twin in (new, ref):
            twin.engine.run(until=horizon)
        seen.append((new.observed(), ref.observed()))
        for twin in (new, ref):
            twin.act(action)
        if action == "stop":
            bounded = True
        elif isinstance(action, tuple):
            bounded = action[1] is not None
        seen.append((new.observed(), ref.observed()))
    last = schedule.phases[-1][0] if schedule.phases else 0.0
    for twin in (new, ref):
        if bounded:
            twin.engine.run()  # drains: the stream stops on its own
        else:
            twin.engine.run(until=last + 40 * schedule.interval)
    seen.append((new.observed(), ref.observed()))
    for ours, theirs in seen:
        assert ours == theirs
    # Every attempt the paused clock skipped is one event fewer; a
    # ceiling stall is an attempt made while up, so it still fires.
    saved = ref.engine.events_processed - new.engine.events_processed
    stalls = getattr(new.sender, "stalls", 0)
    assert saved == new.sender.sends_suppressed - stalls
    assert getattr(ref.sender, "stalls", 0) == stalls
    return new, ref


quarters = st.integers(min_value=0, max_value=24).map(lambda n: n * QUARTER)
down_times = st.one_of(st.none(), quarters)


@st.composite
def schedules(draw: Any) -> Schedule:
    interval = draw(st.sampled_from([0.5, 1.0, 2.0]))
    horizon = 0.0
    phases = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        horizon += draw(st.integers(min_value=1, max_value=60)) * QUARTER
        action = draw(st.one_of(
            st.none(), st.just("wake"), st.just("stop"),
            st.tuples(st.just("start"),
                      st.one_of(st.none(), st.integers(0, 30))),
        ))
        phases.append((horizon, action))
    between_ticks = st.tuples(
        st.integers(min_value=0, max_value=30),
        st.sampled_from([0.25, 0.5, 0.75]),
    ).map(lambda jf: (jf[0] + jf[1]) * interval)
    return Schedule(
        kind=draw(st.sampled_from(KINDS)),
        interval=interval,
        t_save=draw(st.integers(min_value=0, max_value=12)) * QUARTER,
        t_fetch=draw(st.integers(min_value=0, max_value=8)) * QUARTER,
        k=draw(st.integers(min_value=1, max_value=6)),
        count=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=40))),
        listener_resets=draw(st.dictionaries(
            st.integers(min_value=1, max_value=30), down_times, max_size=3)),
        timed_resets=draw(st.lists(
            st.tuples(between_ticks, down_times), max_size=3)),
        timed_wakes=draw(st.lists(
            st.integers(min_value=1, max_value=120).map(lambda n: n * QUARTER),
            max_size=2)),
        phases=phases,
    )


@settings(max_examples=400, deadline=None)
@given(schedules())
def test_paused_clock_matches_the_per_tick_clock(schedule: Schedule) -> None:
    run_twins(schedule)


def _schedule(**overrides: Any) -> Schedule:
    base: dict[str, Any] = dict(kind="savefetch", interval=1.0, t_save=2.0,
                                t_fetch=1.0, k=3, count=30)
    base.update(overrides)
    return Schedule(**base)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "case",
    [
        # A reset from the send listener, at a tick instant.
        dict(listener_resets={5: 3.0}),
        # A reset from another event, between two ticks.
        dict(timed_resets=[(4.5, 3.0)]),
        # Zero-length resets, from a listener and between ticks.
        dict(listener_resets={4: 0.0}, timed_resets=[(9.5, 0.0)]),
        # Down until an explicit wake: from outside a run, then an event.
        dict(listener_resets={3: None}, phases=[(9.0, "wake"), (12.0, None)]),
        dict(timed_resets=[(2.5, None)], timed_wakes=[(8.0)]),
        # A second reset during the post-wake SAVE.
        dict(listener_resets={3: 1.0}, timed_resets=[(6.5, 1.0)], t_save=3.0),
        # The count runs out while the host is down, and it never wakes.
        dict(count=8, listener_resets={5: None}),
        dict(count=8, timed_resets=[(3.5, None)]),
        # Stop and start the stream while the host is down.
        dict(listener_resets={3: 10.0},
             phases=[(6.0, "stop"), (8.0, ("start", 5)), (9.0, None)]),
        dict(listener_resets={3: 10.0}, phases=[(6.0, ("start", None))]),
        # run(until=H) ending mid-outage: bounded, then unbounded.
        dict(listener_resets={3: 20.0}, phases=[(10.0, None), (15.0, None)]),
        dict(count=None, listener_resets={3: None},
             phases=[(10.0, None), (15.5, None)]),
        # Resume exactly on a grid instant: after the pending tick's
        # instant, and on it.
        dict(listener_resets={2: 4.0}, t_save=0.0, t_fetch=0.0),
        dict(timed_resets=[(4.5, 0.5)], t_save=0.0, t_fetch=0.0),
    ],
)
def test_listed_schedules(kind: str, case: dict[str, Any]) -> None:
    run_twins(_schedule(kind=kind, **case))


def test_ceiling_stalls_keep_firing() -> None:
    # Saves take five intervals and each reserves two numbers: the
    # sender stalls while up, and those ticks still reserve ceilings.
    new, _ = run_twins(_schedule(kind="ceiling", k=2, t_save=5.0,
                                 listener_resets={6: 2.0}))
    assert new.sender.stalls > 0


def test_unbounded_read_after_horizon_counts_the_outage() -> None:
    twin = Twin(_schedule(count=None, listener_resets={2: None}),
                reference=False)
    twin.start(None)
    twin.engine.run(until=7.0)
    # Ticks at 3, 4, 5, 6 and 7 were attempts; the horizon's included.
    assert twin.sender.sends_suppressed == 5
    assert twin.engine.pending_events == 0
