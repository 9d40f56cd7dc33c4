"""Bench E9 — Section 6 prolonged-reset recovery.

Paper shape: ICMP-based detection, keep-alive instead of teardown, secured
resync message accepted on wake (recovery time tracks the outage), replays
injected during the outage all rejected, keep-alive expiry past the budget.
"""

from repro.experiments import e09_prolonged_reset


def bench_prolonged_reset(run_experiment):
    result = run_experiment(e09_prolonged_reset.sweep(
        outages=[0.05, 0.2, 0.5, 2.0],
        keep_alive_timeout=1.0,
    ))
    assert all(row["detected"] for row in result.rows)
    assert all(row["replays_accepted"] == 0 for row in result.rows)
    within = [row for row in result.rows if row["outage_s"] < 1.0]
    assert all(not row["keepalive_expired"] for row in within)
    assert all(row["resync_accepted"] for row in within)
    beyond = [row for row in result.rows if row["outage_s"] > 1.0]
    assert all(row["keepalive_expired"] for row in beyond)
