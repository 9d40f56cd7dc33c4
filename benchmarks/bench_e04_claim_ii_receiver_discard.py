"""Bench E4 — claim (ii): fresh discards after a receiver reset <= 2Kq and
zero replays accepted under a full-history replay at wake-up, across a Kq
sweep.
"""

from repro.experiments import e04_receiver_discard


def bench_claim_ii_receiver_discard(run_experiment):
    result = run_experiment(
        e04_receiver_discard.sweep(ks=[5, 10, 25, 50, 100], offsets_per_k=6)
    )
    assert all(row["within_bound"] for row in result.rows)
    assert all(row["replays_accepted"] == 0 for row in result.rows)
    assert sum(result.column("replays_injected")) > 1000
