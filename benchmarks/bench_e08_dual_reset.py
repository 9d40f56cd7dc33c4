"""Bench E8 — dual resets: the Section 5 third case, the Section 3
window-jump attack, and the staggered boundary found by model checking.

Paper shape: simultaneous dual reset converges under SAVE/FETCH and
desynchronises the unprotected pair.  Reproduction finding: a staggered
receiver reset inside the post-leap checkpoint lets one replay through
SAVE/FETCH; the write-ahead ceiling repair rejects it.
"""

from repro.experiments import e08_dual_reset


def bench_dual_reset(run_experiment):
    result = run_experiment(e08_dual_reset.sweep(k=25))
    rows = {(row["case"], row["protocol"]): row for row in result.rows}
    assert rows[("simultaneous", "save/fetch")]["converged"]
    assert not rows[("simultaneous", "unprotected")]["converged"]
    assert rows[("staggered-vulnerable", "savefetch")]["replays_accepted"] >= 1
    assert rows[("staggered-vulnerable", "ceiling")]["replays_accepted"] == 0
