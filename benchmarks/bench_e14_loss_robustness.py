"""Bench E14 — empirical exposure of the loss-hole counterexample
(extension ablation): vulnerable checkpoint windows appear under bursty
loss and SAVE/FETCH admits replays there; the write-ahead ceiling variant
admits none under the identical trigger and attack."""

from repro.experiments import e14_loss_robustness


def bench_loss_robustness(run_experiment):
    result = run_experiment(
        e14_loss_robustness.sweep(burst_levels=[0.0, 0.01, 0.03], seeds=6)
    )
    rows = {row["burst_g2b"]: row for row in result.rows}
    assert rows[0.0]["vulnerable_windows"] == 0
    assert rows[0.0]["sf_runs_with_replays"] == 0
    assert rows[0.03]["vulnerable_windows"] > 0
    assert rows[0.03]["sf_runs_with_replays"] > 0
    assert all(row["ceiling_runs_with_replays"] == 0 for row in result.rows)
