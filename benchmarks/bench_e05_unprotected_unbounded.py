"""Bench E5 — the headline: Section 3's unbounded failures vs the
SAVE/FETCH constants, swept over pre-reset traffic volume.

Paper shape: the unprotected protocol's replay acceptance and fresh-message
discards grow linearly (unboundedly) with traffic; SAVE/FETCH holds both at
0 / <= 2K regardless.
"""

from repro.experiments import e05_unbounded


def bench_unprotected_unbounded(run_experiment):
    result = run_experiment(
        e05_unbounded.sweep(traffic_volumes=[100, 250, 500, 1000, 2500])
    )
    unprot = result.column("unprot_replays_accepted")
    volumes = result.column("x_pre_reset")
    # Linear growth: acceptance tracks traffic exactly.
    assert unprot == volumes
    assert result.column("sf_replays_accepted") == [0] * len(volumes)
    discards = result.column("unprot_fresh_discarded")
    assert discards[-1] / discards[0] >= 20  # unbounded growth
    assert all(v <= 50 for v in result.column("sf_fresh_discarded"))
