"""Golden comparison: the sweep-based experiments must reproduce the
pre-refactor rows bit-for-bit.

``golden/golden_rows.json`` was captured by running the original
(serial-loop) e01–e14 implementations at the parameterisations below.
Every experiment now expands to fleet tasks, executes through
``FleetRunner``, and reduces task records back to rows — and the rows,
columns, and notes must all be exactly what the loops produced at the
same seeds.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    e01_sender_gap,
    e02_receiver_gap,
    e03_sender_loss,
    e04_receiver_discard,
    e05_unbounded,
    e06_save_interval,
    e07_rekey_cost,
    e08_dual_reset,
    e09_prolonged_reset,
    e10_reorder,
    e11_double_reset,
    e12_reset_notice,
    e13_dpd,
    e14_loss_robustness,
)
from repro.experiments.sweep import ExperimentDriver

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_rows.json"

#: The exact parameterisations the goldens were captured at.
CASES = {
    "e01": lambda: e01_sender_gap.sweep(k=50, offsets=[0, 10, 24, 30, 45]),
    "e02": lambda: e02_receiver_gap.sweep(k=50, offsets=[0, 20, 30, 45]),
    "e03": lambda: e03_sender_loss.sweep(ks=[10, 40], offsets_per_k=3),
    "e04": lambda: e04_receiver_discard.sweep(ks=[10, 40], offsets_per_k=3),
    "e05": lambda: e05_unbounded.sweep(traffic_volumes=[100, 400]),
    "e06": lambda: e06_save_interval.sweep(ks=[10, 50]),
    "e06b": lambda: e06_save_interval.policy_sweep(ks=[25]),
    "e07": lambda: e07_rekey_cost.sweep(sa_counts=[1, 4], rtts=[0.001]),
    "e08": lambda: e08_dual_reset.sweep(k=25),
    "e09": lambda: e09_prolonged_reset.sweep(
        outages=[0.05, 2.0], keep_alive_timeout=1.0
    ),
    "e10": lambda: e10_reorder.sweep(
        window_sizes=[32], degrees=[1, 31, 32, 64], messages=800
    ),
    "e11": lambda: e11_double_reset.sweep(k=25),
    "e12": lambda: e12_reset_notice.sweep(
        pre_reset_messages=200, post_reset_messages=80
    ),
    "e13": lambda: e13_dpd.sweep(cadences=[0.1, 1.0]),
    "e14": lambda: e14_loss_robustness.sweep(burst_levels=[0.0, 0.03], seeds=3),
}


def _golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _canonical(result):
    """JSON round-trip, so tuples/ints normalise exactly like the store."""
    return json.loads(json.dumps({
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
    }))


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_match_pre_refactor_output(name):
    golden = _golden()[name]
    result = ExperimentDriver(CASES[name]()).run()
    actual = _canonical(result)
    assert actual["columns"] == golden["columns"]
    assert actual["rows"] == golden["rows"]
    assert actual["notes"] == golden["notes"]


def test_parallel_execution_matches_golden_rows():
    """jobs=2 runs through the multiprocessing pool yet reduces to the
    exact same rows (ordered imap + explicit per-task seeds)."""
    golden = _golden()["e13"]
    result = ExperimentDriver(CASES["e13"](), jobs=2).run()
    assert _canonical(result)["rows"] == golden["rows"]
