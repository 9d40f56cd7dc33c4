"""Bench M1 — microbenchmark: replay-window operations per second.

Times the one anti-replay window, :class:`BitmapReplayWindow` at
``w = 64``, on three access patterns: an in-order stream (every update
slides the window), a jittered stream (each probe up to 47 behind the
head) and a replay-heavy stream (every fresh message followed by a
replay of the one three behind it).
"""

import random

from repro.ipsec.replay_window import BitmapReplayWindow


def in_order_workload(window, count: int = 20_000) -> int:
    accepted = 0
    for seq in range(1, count + 1):
        if window.update(seq).accepted:
            accepted += 1
    return accepted


def jittered_workload(window, count: int = 20_000, seed: int = 7) -> int:
    rng = random.Random(seed)
    accepted = 0
    seq = 0
    for _ in range(count):
        seq += 1
        probe = max(1, seq - rng.randrange(0, 48))
        if window.update(probe).accepted:
            accepted += 1
    return accepted


def replay_heavy_workload(window, count: int = 20_000) -> int:
    accepted = 0
    for seq in range(1, count + 1):
        if window.update(seq).accepted:
            accepted += 1
        window.update(max(1, seq - 3))  # constant replay pressure
    return accepted


def bench_window_in_order(benchmark, report_rate):
    result = benchmark(lambda: in_order_workload(BitmapReplayWindow(64)))
    assert result == 20_000
    report_rate("updates/s", 20_000)


def bench_window_jittered(benchmark, report_rate):
    result = benchmark(lambda: jittered_workload(BitmapReplayWindow(64)))
    assert result > 0
    report_rate("updates/s", 20_000)


def bench_window_replay_heavy(benchmark, report_rate):
    result = benchmark(lambda: replay_heavy_workload(BitmapReplayWindow(64)))
    assert result == 20_000
    report_rate("updates/s", 40_000)
