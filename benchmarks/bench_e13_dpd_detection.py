"""Bench E13 — dead-peer detection time vs probe cadence (the detection
term of the E7 total-recovery comparison)."""

from repro.experiments import e13_dpd


def bench_dpd_detection(run_experiment):
    result = run_experiment(e13_dpd.sweep(cadences=[0.1, 0.5, 2.0]))
    assert all(row["detected"] for row in result.rows)
    heartbeat = [r for r in result.rows if r["mechanism"] == "heartbeat"]
    detections = [row["detection_s"] for row in heartbeat]
    assert detections == sorted(detections)  # scales with cadence
    # Traffic-based DPD is quiet while the conversation is healthy.
    traffic = [r for r in result.rows if r["mechanism"] == "traffic"]
    assert all(row["probes_while_healthy"] == 0 for row in traffic)
