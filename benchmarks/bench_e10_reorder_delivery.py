"""Bench E10 — w-Delivery under controlled reorder.

Paper shape: a cliff at reorder degree = w; below it every reordered
message is delivered, at or above it reordered messages are discarded
despite being fresh (the observation motivating the paper's reference [2]).
Discrimination (no duplicates) holds throughout.
"""

from repro.experiments import e10_reorder


def bench_reorder_delivery(run_experiment):
    result = run_experiment(e10_reorder.sweep(
        window_sizes=[32, 64],
        degrees=[1, 8, 31, 32, 33, 63, 64, 65, 128],
        messages=2000,
    ))
    for row in result.rows:
        if row["degree"] < row["w"]:
            assert row["fresh_discarded"] == 0, row
        else:
            assert row["fresh_discarded"] > 0, row
        assert row["duplicates_delivered"] == 0
