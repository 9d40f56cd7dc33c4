"""Tests for repro.obs.compare (statistical run diffing)."""

import pytest

from repro.obs.archive import KIND_OBS, RunSnapshot
from repro.obs.compare import (
    DEFAULT_POLICIES,
    MetricPolicy,
    bootstrap_delta_ci,
    classify_bounds,
    classify_samples,
    classify_scalar,
    diff_runs,
    distribution_bounds,
    policy_for,
    render_diff_table,
)
from repro.obs.health import HealthState
from repro.obs.hub import SKETCH_RELATIVE_ERROR, QuantileSketch, percentile


def snap(counters=None, gauges=None, samples=None, histograms=None,
         name="run"):
    snapshot = RunSnapshot(kind=KIND_OBS, name=name)
    snapshot.signals["counters"].update(counters or {})
    snapshot.signals["gauges"].update(gauges or {})
    snapshot.signals["samples"].update(samples or {})
    snapshot.signals["histograms"].update(histograms or {})
    return snapshot


GATED = MetricPolicy("*", direction=1, rel=(0.10, 0.50),
                     absolute=(1.0, 10.0))


class TestPolicies:
    def test_first_match_wins(self):
        assert policy_for("worker/cpu_time").gated is False
        assert policy_for("replay_discards").gated is True

    def test_fallback_is_info(self):
        policy = policy_for("some_future_signal_xyz")
        assert policy.gated is False
        assert policy.direction == 0

    def test_converged_lower_is_worse(self):
        assert policy_for("converged").direction == -1
        assert policy_for("metric/converged").direction == -1

    def test_normalized_rate_info_only(self):
        policy = policy_for("bench_engine_event_rate/normalized_rate")
        assert policy.gated is False
        assert policy.direction == -1

    def test_recovery_uses_time_thresholds(self):
        policy = policy_for("recovery_latency")
        assert policy.absolute == (5e-5, 2e-4)


class TestClassifyScalar:
    def test_no_change_green(self):
        assert classify_scalar(5.0, 5.0, GATED)[0] is HealthState.GREEN

    def test_improvement_green(self):
        assert classify_scalar(5.0, 1.0, GATED)[0] is HealthState.GREEN

    def test_red_needs_both_axes(self):
        # Relative huge (1 -> 30, 29x) AND absolute huge (29 > 10): RED.
        assert classify_scalar(1.0, 30.0, GATED)[0] is HealthState.RED
        # Relative huge but absolute small (0 -> 2 with floor 1): YELLOW.
        assert classify_scalar(0.0, 2.0, GATED)[0] is HealthState.YELLOW
        # Absolute large but relative tiny (1000 -> 1015, 1.5%): YELLOW.
        assert classify_scalar(1000.0, 1015.0, GATED)[0] is HealthState.YELLOW

    def test_direction_flips_worseness(self):
        lower_worse = MetricPolicy("*", direction=-1, absolute=(1.0, 2.0))
        state, _ = classify_scalar(10.0, 1.0, lower_worse)
        assert state is not HealthState.GREEN
        assert classify_scalar(1.0, 10.0, lower_worse)[0] is HealthState.GREEN

    def test_info_policy_always_green(self):
        info = MetricPolicy("*", direction=0, gated=False)
        assert classify_scalar(0.0, 1e9, info)[0] is HealthState.GREEN


class TestBootstrap:
    def test_deterministic(self):
        base = [1.0, 1.1, 0.9, 1.05]
        cur = [2.0, 2.1, 1.9, 2.05]
        assert bootstrap_delta_ci(base, cur) == bootstrap_delta_ci(base, cur)

    def test_clear_shift_excludes_zero(self):
        base = [1.0, 1.1, 0.9, 1.05, 0.95]
        cur = [2.0, 2.1, 1.9, 2.05, 1.95]
        low, high = bootstrap_delta_ci(base, cur)
        assert low > 0.5
        assert high < 1.5

    def test_identical_series_ci_is_tight_around_zero(self):
        values = [1.0, 2.0, 3.0]
        low, high = bootstrap_delta_ci(values, values)
        assert low <= 0.0 <= high


class TestClassifySamples:
    def test_doubled_series_red_with_ci(self):
        policy = MetricPolicy("*", absolute=(5e-5, 2e-4))
        base = [0.7e-3, 0.8e-3, 0.9e-3, 1.0e-3]
        cur = [v * 2 for v in base]
        state, note = classify_samples(base, cur, policy)
        assert state is HealthState.RED
        assert "95% CI" in note

    def test_single_observation_caps_at_yellow(self):
        policy = MetricPolicy("*", absolute=(5e-5, 2e-4))
        state, note = classify_samples([1e-3], [1e-2], policy)
        assert state is HealthState.YELLOW
        assert "n=1" in note

    def test_insignificant_red_demotes(self):
        # Means differ enough for a naive RED, but the series overlap so
        # much the bootstrap CI spans zero.
        policy = MetricPolicy("*", rel=(0.01, 0.05), absolute=(1e-6, 1e-4))
        base = [1e-3, 9e-3, 2e-3, 8e-3, 3e-3]
        cur = [2e-3, 8e-3, 4e-3, 9e-3, 4e-3]
        state, note = classify_samples(base, cur, policy)
        assert state is not HealthState.RED
        if "spans 0" in note:
            assert state is HealthState.YELLOW

    def test_improvement_green(self):
        policy = MetricPolicy("*", absolute=(5e-5, 2e-4))
        base = [2e-3, 2e-3, 2e-3]
        cur = [1e-3, 1e-3, 1e-3]
        assert classify_samples(base, cur, policy)[0] is HealthState.GREEN


class TestClassifyBounds:
    def test_overlap_is_green_within_sketch_error(self):
        # Naively worse (hi moved up) but the intervals overlap.
        state, note = classify_bounds((0.9, 1.0), (0.95, 1.1), GATED)
        assert state is HealthState.GREEN
        assert note == "within sketch error"

    def test_gap_beyond_error_escalates(self):
        policy = MetricPolicy("*", rel=(0.10, 0.50), absolute=(0.1, 1.0))
        state, note = classify_bounds((0.9, 1.0), (3.0, 3.3), policy)
        assert state is HealthState.RED
        assert "beyond sketch error" in note

    def test_identical_bounds_green(self):
        assert classify_bounds((1.0, 1.0), (1.0, 1.0), GATED)[0] \
            is HealthState.GREEN

    def test_direction_minus_one(self):
        policy = MetricPolicy("*", direction=-1, rel=(0.1, 0.5),
                              absolute=(0.1, 1.0))
        # Current dropped far below baseline: worse for lower-is-worse.
        state, _ = classify_bounds((3.0, 3.3), (0.5, 0.6), policy)
        assert state is HealthState.RED
        # Improvement is green.
        assert classify_bounds((0.5, 0.6), (3.0, 3.3), policy)[0] \
            is HealthState.GREEN


class TestDistributionBounds:
    def test_samples_zero_width(self):
        snapshot = snap(samples={"lat": [1.0, 2.0, 3.0, 4.0]})
        lo, hi = distribution_bounds(snapshot, "lat", 0.5)
        assert lo == hi

    def test_histogram_bounds_contain_truth(self):
        hist = QuantileSketch()
        values = [0.001 * (1 + i % 7) for i in range(100)]
        for value in values:
            hist.observe(value)
        snapshot = snap(histograms={"lat": hist.as_dict()})
        for q in (0.5, 0.9, 0.99):
            lo, hi = distribution_bounds(snapshot, "lat", q)
            truth = percentile(values, q * 100.0)
            assert lo <= truth <= hi

    def test_sketch_preferred_over_samples(self):
        sketch = QuantileSketch()
        for i in range(100):
            sketch.observe(0.001 * (1 + i % 7))
        snapshot = snap(histograms={"lat": sketch.as_dict()},
                        samples={"lat": [99.0]})
        lo, hi = distribution_bounds(snapshot, "lat", 0.99)
        assert hi < 99.0  # came from the sketch, not the sample
        assert hi / (1.0 + SKETCH_RELATIVE_ERROR) <= lo <= hi

    def test_absent_signal_none(self):
        assert distribution_bounds(snap(), "nope", 0.5) is None


class TestDiffRuns:
    def test_self_diff_all_green(self):
        snapshot = snap(
            counters={"replay_discards": 3, "errors": 0},
            gauges={"loss_ewma": 0.01},
            samples={"recovery_latency": [1e-3, 2e-3, 3e-3]},
        )
        diff = diff_runs(snapshot, snapshot)
        assert diff.verdict is HealthState.GREEN
        assert diff.regressions == []
        assert all(row.state is HealthState.GREEN for row in diff.rows)

    def test_counter_regression_detected(self):
        base = snap(counters={"replay_discards": 0})
        cur = snap(counters={"replay_discards": 200})
        diff = diff_runs(base, cur)
        assert diff.verdict is HealthState.RED
        assert diff.regressions[0].name == "replay_discards"

    def test_presence_rows_are_info(self):
        base = snap(counters={"old_signal": 1})
        cur = snap(counters={"new_signal": 2})
        diff = diff_runs(base, cur)
        notes = {row.name: row.note for row in diff.rows}
        assert notes["old_signal"] == "only in baseline"
        assert notes["new_signal"] == "only in current"
        assert diff.verdict is HealthState.GREEN

    def test_mixed_exact_vs_sketch_quantiles(self):
        # Baseline has exact samples; current only a sketch of ~the same
        # distribution: overlapping honest intervals, no false alarm.
        values = [0.001 * (1 + i % 5) for i in range(50)]
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        base = snap(samples={"recovery_latency": values})
        cur = snap(histograms={"recovery_latency": sketch.as_dict()})
        diff = diff_runs(base, cur)
        quantile_rows = [r for r in diff.rows if r.kind in ("p50", "p99")]
        assert quantile_rows
        assert all(r.state is HealthState.GREEN for r in quantile_rows)

    def test_sketch_vs_sketch_true_regression(self):
        base_sketch, cur_sketch = QuantileSketch(), QuantileSketch()
        for i in range(200):
            value = 0.001 * (1 + i % 5)
            base_sketch.observe(value)
            cur_sketch.observe(value * 2.0)  # 2x > 1.0905 sketch slop
        base = snap(histograms={"recovery_latency": base_sketch.as_dict()})
        cur = snap(histograms={"recovery_latency": cur_sketch.as_dict()})
        diff = diff_runs(base, cur)
        p99 = [r for r in diff.rows if r.kind == "p99"][0]
        assert p99.state is not HealthState.GREEN

    def test_row_order_deterministic(self):
        base = snap(counters={"b": 1, "a": 2}, gauges={"z": 0.1},
                    samples={"m": [1.0, 2.0, 3.0]})
        cur = snap(counters={"b": 2, "a": 2}, gauges={"z": 0.2},
                   samples={"m": [1.0, 2.0, 3.0]})
        first = [(- r.name.count(""), r.name, r.kind)
                 for r in diff_runs(base, cur).rows]
        second = [(- r.name.count(""), r.name, r.kind)
                  for r in diff_runs(base, cur).rows]
        assert first == second

    def test_as_dict_round_trips_json(self):
        import json

        diff = diff_runs(snap(counters={"errors": 0}),
                         snap(counters={"errors": 5}))
        data = json.loads(json.dumps(diff.as_dict()))
        assert data["verdict"] == "RED"
        assert data["regressions"] == 1


class TestRenderDiffTable:
    def test_stable_and_names_verdict(self):
        base = snap(counters={"replay_discards": 0})
        cur = snap(counters={"replay_discards": 200})
        diff = diff_runs(base, cur)
        text = render_diff_table(diff)
        assert render_diff_table(diff_runs(base, cur)) == text
        assert "verdict: RED (1 regression(s))" in text
        assert "replay_discards" in text

    def test_self_diff_mentions_identical_hashes(self):
        snapshot = snap(counters={"errors": 0})
        text = render_diff_table(diff_runs(snapshot, snapshot))
        assert "self-diff" in text
        assert "verdict: GREEN" in text

    def test_verbose_shows_green_rows(self):
        base = snap(counters={"errors": 0})
        quiet = render_diff_table(diff_runs(base, base))
        loud = render_diff_table(diff_runs(base, base), verbose=True)
        assert "errors" not in quiet
        assert "errors" in loud

    def test_info_rows_marked(self):
        base = snap(gauges={"bench_x/normalized_rate": 100.0})
        cur = snap(gauges={"bench_x/normalized_rate": 10.0})
        text = render_diff_table(diff_runs(base, cur), verbose=True)
        assert "(info)" in text
        assert "verdict: GREEN" in text  # slower bench never gates here
