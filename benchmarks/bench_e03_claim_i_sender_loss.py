"""Bench E3 — claim (i): lost sequence numbers after a sender reset <= 2Kp,
zero fresh discards on an in-order channel, across a Kp sweep.
"""

from repro.experiments import e03_sender_loss


def bench_claim_i_sender_loss(run_experiment):
    result = run_experiment(
        e03_sender_loss.sweep(ks=[5, 10, 25, 50, 100], offsets_per_k=6)
    )
    assert all(row["within_bound"] for row in result.rows)
    assert all(row["fresh_discarded"] == 0 for row in result.rows)
    assert all(row["converged"] for row in result.rows)
    losses = result.column("max_lost")
    assert losses == sorted(losses)  # grows with Kp
