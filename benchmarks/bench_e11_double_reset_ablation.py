"""Bench E11 — ablating the Section 4 recovery design under double resets.

Paper shape: only the paper's configuration (2K leap + synchronous wake
SAVE) is safe under both single and double resets; a 1K/0K leap reuses
sequence numbers immediately, and skipping the wake SAVE survives a single
reset but reuses under the second-reset hazard.
"""

from repro.experiments import e11_double_reset


def bench_double_reset_ablation(run_experiment):
    result = run_experiment(e11_double_reset.sweep(k=25))
    by_variant: dict[str, list] = {}
    for row in result.rows:
        by_variant.setdefault(row["variant"], []).append(row)
    assert all(row["safe"] for row in by_variant["paper (leap 2K, wake save)"])
    assert any(row["min_lost"] < 0 for row in by_variant["leap 1K"])
    assert any(row["min_lost"] < 0 for row in by_variant["leap 0"])
    skip = {row["double_reset"]: row for row in by_variant["skip wake save"]}
    assert skip[False]["safe"] and not skip[True]["safe"]
