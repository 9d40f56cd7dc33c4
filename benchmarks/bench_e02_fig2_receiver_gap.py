"""Bench E2 — regenerates Figure 2: receiver-reset gap across the SAVE cycle.

Paper shape: same two regimes as Fig. 1 with Kq; fresh discards within the
claim (ii) budget and zero replays accepted.
"""

from repro.experiments import e02_receiver_gap


def bench_fig2_receiver_gap(run_experiment):
    result = run_experiment(
        e02_receiver_gap.sweep(k=50, offsets=list(range(0, 50, 2)))
    )
    assert all(row["within_bound"] for row in result.rows)
    assert all(row["replays_accepted"] == 0 for row in result.rows)
    assert all(row["fresh_discarded"] <= row["discard_bound_2k"] for row in result.rows)
