"""Smoke + shape tests for every experiment (small parameterisations).

Each test asserts the *reproduced shape*: the qualitative claim the paper
makes (who wins, what is bounded, where the cliff/knee sits), not exact
numbers.
"""

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
    e15_gateway_convergence,
)
from repro.experiments.common import ExperimentResult, render_table
from repro.experiments.sweep import ExperimentDriver, SweepSpec
from repro.workloads.scenarios import run_save_policy_scenario


def run_sweep(spec: SweepSpec) -> ExperimentResult:
    return ExperimentDriver(spec).run()


class TestCommon:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [{"a": 1, "bb": 22}, {"a": 333, "bb": 4}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_table_zero_rows(self):
        text = render_table(["alpha", "b"], [])
        lines = text.splitlines()
        assert lines == ["alpha  b", "--------"]

    def test_render_table_zero_rows_and_zero_columns(self):
        # Degenerate but legal: an empty header and an empty rule line.
        assert render_table([], []) == "\n"

    def test_format_cell_stable_at_1000_boundary(self):
        from repro.experiments.common import _format_cell

        # Values that *round* to 1000 under %.4g must render in the same
        # notation as 1000 itself, not flip to fixed-point.
        assert _format_cell(1000.0) == "1.000e+03"
        assert _format_cell(999.99996) == "1.000e+03"
        assert _format_cell(-1000.0) == "-1.000e+03"
        assert _format_cell(999.9) == "999.9"

    def test_format_cell_stable_at_small_boundary(self):
        from repro.experiments.common import _format_cell

        assert _format_cell(0.001) == "0.001"
        # Rounds up to 0.001 under %.4g: stays fixed-point like 0.001.
        assert _format_cell(0.00099999999) == "0.001"
        assert _format_cell(0.0009) == "9.000e-04"

    def test_result_container(self):
        result = ExperimentResult("EX", "t", "p", columns=["x"])
        result.add_row(x=1)
        result.note("n")
        assert result.column("x") == [1]
        assert "EX" in result.render() and "note: n" in result.render()


class TestE01:
    def test_fig1_two_regimes_and_bound(self):
        result = run_sweep(e01_sender_gap.sweep(k=50, offsets=[0, 10, 24, 30, 45]))
        assert all(row["within_bound"] for row in result.rows)
        in_flight = [r["gap"] for r in result.rows if r["save_in_flight"]]
        committed = [r["gap"] for r in result.rows if not r["save_in_flight"]]
        assert in_flight and committed
        # Fig. 1's two regimes: gap ~ k + t while the save is in flight
        # (>= k - 1 at t = 0), gap ~ t (< k) once it committed.
        assert min(in_flight) >= 49
        assert max(in_flight) <= 100
        assert max(committed) < 50
        assert all(row["replays_accepted"] == 0 for row in result.rows)


class TestE02:
    def test_fig2_bound_and_no_replays(self):
        result = run_sweep(e02_receiver_gap.sweep(k=50, offsets=[0, 20, 30, 45]))
        assert all(row["within_bound"] for row in result.rows)
        assert all(row["replays_accepted"] == 0 for row in result.rows)
        assert all(row["fresh_discarded"] <= 100 for row in result.rows)


class TestE03:
    def test_claim_i_shape(self):
        result = run_sweep(e03_sender_loss.sweep(ks=[10, 40], offsets_per_k=3))
        assert all(row["within_bound"] for row in result.rows)
        assert all(row["fresh_discarded"] == 0 for row in result.rows)
        assert all(row["converged"] for row in result.rows)
        losses = result.column("max_lost")
        assert losses[1] > losses[0]  # grows with Kp


class TestE04:
    def test_claim_ii_shape(self):
        result = run_sweep(e04_receiver_discard.sweep(ks=[10, 40], offsets_per_k=3))
        assert all(row["within_bound"] for row in result.rows)
        assert all(row["replays_accepted"] == 0 for row in result.rows)
        assert all(row["replays_injected"] > 0 for row in result.rows)


class TestE05:
    def test_headline_crossover(self):
        result = run_sweep(e05_unbounded.sweep(traffic_volumes=[100, 400]))
        unprot = result.column("unprot_replays_accepted")
        assert unprot == [100, 400]  # linear, unbounded
        assert result.column("sf_replays_accepted") == [0, 0]
        unprot_discards = result.column("unprot_fresh_discarded")
        assert unprot_discards[1] > unprot_discards[0]
        assert all(v <= 50 for v in result.column("sf_fresh_discarded"))


class TestE06:
    def test_knee_at_rule(self):
        result = run_sweep(e06_save_interval.sweep(ks=[10, 50]))
        below, above = result.rows
        assert not below["rule_satisfied"] and above["rule_satisfied"]
        assert below["max_concurrent_saves"] > 1
        assert above["max_concurrent_saves"] == 1
        assert above["gap_bound_ok"]
        assert above["overhead_fraction"] < below["overhead_fraction"]

    def test_policy_comparison_waste(self):
        comparison = run_save_policy_scenario(k=25, bursts=10)
        assert comparison["time_based_saves"] > comparison["count_based_saves"]
        assert comparison["waste_fraction"] > 0.5


class TestE07:
    def test_savefetch_wins_and_scales(self):
        result = run_sweep(e07_rekey_cost.sweep(sa_counts=[1, 4], rtts=[0.001]))
        assert all(row["speedup"] > 50 for row in result.rows)
        times = result.column("rekey_time_s")
        assert times[1] > 3 * times[0]  # linear in SA count
        assert all(row["savefetch_time_s"] < 0.01 for row in result.rows)


class TestE08:
    def test_dual_reset_cases(self):
        result = run_sweep(e08_dual_reset.sweep(k=25))
        by_case = {(row["case"], row["protocol"]): row for row in result.rows}
        assert by_case[("simultaneous", "save/fetch")]["converged"]
        assert not by_case[("simultaneous", "unprotected")]["converged"]
        # This reproduction's finding: the staggered window bites
        # SAVE/FETCH and not the ceiling repair.
        assert by_case[("staggered-vulnerable", "savefetch")]["replays_accepted"] >= 1
        assert by_case[("staggered-vulnerable", "ceiling")]["replays_accepted"] == 0


class TestE09:
    def test_recovery_tracks_outage(self):
        result = run_sweep(e09_prolonged_reset.sweep(
            outages=[0.05, 2.0], keep_alive_timeout=1.0
        ))
        short, long = result.rows
        assert short["detected"] and short["resync_accepted"]
        assert not short["keepalive_expired"]
        assert long["keepalive_expired"]
        assert all(row["replays_accepted"] == 0 for row in result.rows)
        assert short["recovery_s"] == pytest.approx(0.05, abs=0.02)


class TestE10:
    def test_cliff_at_window_size(self):
        result = run_sweep(e10_reorder.sweep(
            window_sizes=[32], degrees=[1, 31, 32, 64], messages=800
        ))
        by_degree = {row["degree"]: row for row in result.rows}
        assert by_degree[1]["fresh_discarded"] == 0
        assert by_degree[31]["fresh_discarded"] == 0
        assert by_degree[32]["fresh_discarded"] > 0
        assert by_degree[64]["discard_rate"] > 0.8
        assert all(row["duplicates_delivered"] == 0 for row in result.rows)


class TestE11:
    def test_only_paper_config_safe(self):
        result = run_sweep(e11_double_reset.sweep(k=25))
        by_variant = {}
        for row in result.rows:
            by_variant.setdefault(row["variant"], []).append(row)
        assert all(row["safe"] for row in by_variant["paper (leap 2K, wake save)"])
        assert any(not row["safe"] for row in by_variant["leap 1K"])
        assert any(not row["safe"] for row in by_variant["leap 0"])
        skip_rows = {row["double_reset"]: row for row in by_variant["skip wake save"]}
        assert skip_rows[False]["safe"]  # single reset: fine
        assert not skip_rows[True]["safe"]  # the hazard the SAVE closes


class TestE13:
    def test_detection_scales_with_cadence(self):
        result = run_sweep(e13_dpd.sweep(cadences=[0.1, 1.0]))
        assert all(row["detected"] for row in result.rows)
        heartbeat = {r["cadence_s"]: r for r in result.rows
                     if r["mechanism"] == "heartbeat"}
        assert heartbeat[1.0]["detection_s"] > heartbeat[0.1]["detection_s"]


class TestE14:
    def test_hole_bites_savefetch_not_ceiling(self):
        result = run_sweep(e14_loss_robustness.sweep(burst_levels=[0.0, 0.03], seeds=3))
        clean, bursty = result.rows
        assert clean["vulnerable_windows"] == 0
        assert clean["sf_runs_with_replays"] == 0
        assert bursty["vulnerable_windows"] > 0
        assert bursty["sf_runs_with_replays"] > 0
        assert bursty["ceiling_runs_with_replays"] == 0


class TestE15:
    def test_policies_trade_spread_not_safety(self):
        result = run_sweep(e15_gateway_convergence.sweep(
            sa_counts=[1, 8],
            crash_after_sends=100,
            messages_after_reset=100,
        ))
        assert all(row["converged"] for row in result.rows)
        assert all(row["replays"] == 0 for row in result.rows)
        by_cell = {(r["n_sas"], r["policy"]): r for r in result.rows}
        # One SA: every policy degenerates to the paper's K=25, no spread.
        assert by_cell[(1, "serial")]["k"] == 25
        assert by_cell[(1, "serial")]["spread_us"] == 0
        # Eight SAs: serial pays the FETCH storm, batching flattens it.
        assert by_cell[(8, "serial")]["k"] == 200
        assert by_cell[(8, "batched")]["k"] == 50
        assert (by_cell[(8, "batched")]["spread_us"]
                < by_cell[(8, "serial")]["spread_us"])
        assert by_cell[(8, "batched")]["batched"] > 0


class TestE12:
    def test_strawman_broken_savefetch_not(self):
        result = run_sweep(e12_reset_notice.sweep(
            pre_reset_messages=200, post_reset_messages=80
        ))
        strawman, savefetch = result.rows
        assert strawman["genuine_recovery_ok"]
        assert strawman["broken_by_replay"]
        assert strawman["replays_accepted"] > 100
        assert not savefetch["broken_by_replay"]
