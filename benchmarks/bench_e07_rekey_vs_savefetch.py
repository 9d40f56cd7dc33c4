"""Bench E7 — recovery cost: IETF delete-and-rekey vs SAVE/FETCH.

Paper shape: rekey cost grows linearly in the number of SAs and with the
RTT (sequential IKE negotiations, ~4.5 round trips each, DH-dominated
compute); SAVE/FETCH recovery is local disk IO, flat in RTT, and wins by
orders of magnitude.
"""

from repro.experiments import e07_rekey_cost


def bench_rekey_vs_savefetch(run_experiment):
    result = run_experiment(
        e07_rekey_cost.sweep(sa_counts=[1, 4, 16, 64], rtts=[0.001, 0.010, 0.050])
    )
    assert all(row["speedup"] > 100 for row in result.rows)
    # Linear in SA count at fixed RTT.
    at_10ms = [row for row in result.rows if row["rtt_ms"] == 10]
    times = [row["rekey_time_s"] for row in at_10ms]
    assert times[-1] > 30 * times[0]
    # SAVE/FETCH flat in RTT.
    sf_times = {row["savefetch_time_s"] for row in result.rows if row["n_sas"] == 1}
    assert len(sf_times) == 1
