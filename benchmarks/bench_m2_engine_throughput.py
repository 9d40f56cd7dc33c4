"""Bench M2 — microbenchmarks of the substrates: DES engine event rate,
cancellation-heavy, timer-churn and timer-wheel schedules, ESP seal/open
throughput, end-to-end simulated messages per second, and model-checker
state rate.

``bench_engine_event_rate`` is the pinned reference workload for the CI
perf gate: 50k self-rescheduling events through an otherwise idle engine,
nothing but the scheduler hot path.  Since the zero-alloc post API became
the library's own hot path (link deliveries ride ``post_at``), the
reference clocks ``post_later``; ``bench_engine_cancellable_rate`` keeps
the handle-returning ``call_later`` flavour honest.  The cancel-heavy and
timer-churn benches exercise the cancellation paths (live-entry
accounting, compaction, dead-entry reclaim), and the sparse-horizon and
cascade-heavy benches hit the timer wheel where it differs from a heap —
far timers parked in wheel levels and windows that advance constantly.

Every engine bench reports the shared machine-normalized events/s line
from :mod:`repro.perf`; ``benchmarks/baselines/engine_events.json`` holds
the checked-in normalized floors the CI gate enforces (see DESIGN.md
"Performance" for how to refresh them).  ``bench_esp_seal_open`` reports
packets/s the same way but is not gated: its time is mostly OpenSSL
SHA-256, which the Python-heap machine score does not normalize.
"""

from repro.core.protocol import build_protocol
from repro.ipsec.esp import esp_open, esp_seal
from repro.ipsec.sa import make_sa
from repro.sim.engine import Engine
from repro.sim.process import Timer
from repro.sim.trace import NULL_TRACE


def bench_engine_event_rate(benchmark, report_rate):
    """The reference workload: 50k self-rescheduling zero-alloc posts.

    This is the shape of the library's hottest real schedule (a link
    delivering a packet stream): fire-and-forget events that are never
    cancelled, scheduled one ahead of the clock.
    """

    def run_events(count: int = 50_000) -> int:
        engine = Engine()
        engine.trace.enabled = False
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] < count:
                engine.post_later(1e-6, tick)

        engine.post_later(1e-6, tick)
        engine.run()
        return fired[0]

    assert benchmark(run_events) == 50_000
    report_rate("events/s", 50_000)


def bench_engine_cancellable_rate(benchmark, report_rate):
    """The ``call_later`` flavour of the reference workload.

    Same schedule, but every event returns a cancellable handle — the
    price of handles (one plain ``Event`` allocation per schedule,
    detached when it fires) relative to the zero-alloc reference is
    exactly the gap between these two lines.
    """

    def run_events(count: int = 50_000) -> int:
        engine = Engine()
        engine.trace.enabled = False
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] < count:
                engine.call_later(1e-6, tick)

        engine.call_later(1e-6, tick)
        engine.run()
        return fired[0]

    assert benchmark(run_events) == 50_000
    report_rate("events/s", 50_000)


def bench_engine_cancel_heavy(benchmark, report_rate):
    """Schedule 50k timers, cancel 80% before any fire.

    This is the shape of a long reset schedule full of re-armed
    inactivity timers: the queue must absorb the cancellations (live
    counter, compaction) without the survivors paying pop-skip costs for
    the dead weight.
    """

    def run_cancels(count: int = 50_000) -> int:
        engine = Engine(trace=NULL_TRACE)
        fired = [0]

        def bump() -> None:
            fired[0] += 1

        events = [
            engine.call_later(1e-3 + i * 1e-6, bump) for i in range(count)
        ]
        for i, event in enumerate(events):
            if i % 5:
                event.cancel()
        engine.run()
        return fired[0]

    assert benchmark(run_cancels) == 10_000
    report_rate("events/s", 50_000)


def bench_engine_timer_churn(benchmark, report_rate):
    """DPD-style inactivity timer under steady traffic.

    Every simulated packet resets the timer, so each tick is scheduled,
    cancelled and re-armed — the worst case for lazy cancellation, where
    the heap continuously accumulates dead entries interleaved with live
    ones.  The timer only expires once, after the stream ends.
    """

    def run_churn(packets: int = 20_000) -> int:
        engine = Engine(trace=NULL_TRACE)
        expirations = [0]

        def on_expire() -> None:
            expirations[0] += 1
            timer.stop()

        timer = Timer(engine, interval=1.0, callback=on_expire)
        timer.start()
        for i in range(1, packets + 1):
            engine.call_later(i * 0.5, timer.reset)
        engine.run()
        return expirations[0]

    assert benchmark(run_churn) == 1
    report_rate("events/s", 20_000)


def bench_engine_sparse_horizon(benchmark, report_rate):
    """Long-horizon sparse timers: 20k events spread over 20,000 s.

    Every event lands far beyond the wheel's 8 s front window, so the
    queue parks them in the coarse wheel levels and pays a window
    advance (plus cascade) to reach each one.  A heap pays log n on
    every push instead; this is the schedule where the two cores differ
    the most structurally.
    """

    def run_sparse(count: int = 20_000) -> int:
        engine = Engine(trace=NULL_TRACE)
        fired = [0]

        def bump() -> None:
            fired[0] += 1

        for i in range(count):
            engine.post_at(1.0 + i * 1.0, bump)
        engine.run()
        return fired[0]

    assert benchmark(run_sparse) == 20_000
    report_rate("events/s", 20_000)


def bench_engine_cascade_heavy(benchmark, report_rate):
    """Self-rescheduling tick stepping just past the front window.

    Each event re-arms 10 s ahead — past the 8 s front span — so every
    single pop forces the wheel to advance its window and cascade the
    next event down from a coarse level.  This is the worst case for
    the hybrid layout: zero events are absorbed by the front heap.
    """

    def run_cascades(count: int = 20_000) -> int:
        engine = Engine(trace=NULL_TRACE)
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] < count:
                engine.post_later(10.0, tick)

        engine.post_later(10.0, tick)
        engine.run()
        return fired[0]

    assert benchmark(run_cascades) == 20_000
    report_rate("events/s", 20_000)


def bench_esp_seal_open(benchmark, report_rate):
    sa = make_sa("p", "q", seed_or_rng=1)
    payload = bytes(256)

    def seal_open(count: int = 2_000) -> int:
        ok = 0
        for seq in range(1, count + 1):
            packet = esp_seal(sa, seq, payload)
            if esp_open(sa, packet) == payload:
                ok += 1
        return ok

    assert benchmark(seal_open) == 2_000
    report_rate("packets/s", 2_000)


def bench_end_to_end_message_rate(benchmark, report_rate):
    def run_protocol(count: int = 10_000) -> int:
        harness = build_protocol(trace=NULL_TRACE)
        harness.sender.start_traffic(count=count)
        harness.run(until=1.0)
        return harness.receiver.delivered_total

    assert benchmark(run_protocol) == 10_000
    report_rate("messages/s", 10_000)


def bench_model_checker_state_rate(benchmark):
    from repro.apn.specs import SpecConfig, make_savefetch_system
    from repro.verify.explorer import StateExplorer

    config = SpecConfig(
        w=2, k=1, max_seq=4, chan_cap=2, max_resets_p=1, max_resets_q=0,
        max_replays=1,
    )

    def explore() -> int:
        result = StateExplorer(make_savefetch_system(config)).explore()
        assert result.ok
        return result.states_explored

    assert benchmark(explore) > 1_000
