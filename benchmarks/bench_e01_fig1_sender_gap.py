"""Bench E1 — regenerates Figure 1: sender-reset gap across the SAVE cycle.

Paper shape: gap = Kp + t while the struck SAVE is in flight, gap = t after
it commits; never reaching 2Kp.
"""

from repro.experiments import e01_sender_gap


def bench_fig1_sender_gap(run_experiment):
    result = run_experiment(
        e01_sender_gap.sweep(k=50, offsets=list(range(0, 50, 2)))
    )
    assert all(row["within_bound"] for row in result.rows)
    assert all(row["replays_accepted"] == 0 for row in result.rows)
    in_flight = [row["gap"] for row in result.rows if row["save_in_flight"]]
    committed = [row["gap"] for row in result.rows if not row["save_in_flight"]]
    # Two regimes, in-flight strictly the worse one (Fig. 1).
    assert min(in_flight) > max(committed)
