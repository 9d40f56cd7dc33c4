"""Bench E6 — the SAVE-interval sizing rule and the count-vs-time policy.

Paper shape: the knee is exactly at K = T_save/T_send = 25 — below it
saves overlap and the 2K analysis no longer covers the protocol; above it
overhead falls as 1/K while worst-case loss grows as 2K.  Under bursty
traffic a time-based SAVE policy wastes most of its writes.
"""

from repro.experiments import e06_save_interval


def bench_save_interval_sizing(run_experiment):
    result = run_experiment(
        e06_save_interval.sweep(ks=[5, 10, 15, 20, 25, 50, 100, 200])
    )
    rows = {row["k"]: row for row in result.rows}
    assert rows[5]["max_concurrent_saves"] > 1  # rule violated: overlap
    assert rows[50]["max_concurrent_saves"] == 1
    assert rows[200]["overhead_fraction"] < rows[25]["overhead_fraction"]
    assert rows[50]["gap_bound_ok"] and rows[100]["gap_bound_ok"]


def bench_save_policy_comparison(run_experiment):
    result = run_experiment(e06_save_interval.policy_sweep(ks=[25, 50, 100]))
    for row in result.rows:
        assert row["time_saves"] > row["count_saves"]
        assert row["waste_fraction"] > 0.5
