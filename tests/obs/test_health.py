"""Tests for repro.obs.health — voting, thresholds, and the table."""

from repro.obs.health import (
    DEFAULT_THRESHOLDS,
    HealthState,
    HealthThresholds,
    classify,
    health_rows,
    render_health_table,
    signal_level,
    vote,
)
from repro.obs.hub import MetricsHub


class TestSignalLevel:
    def test_boundaries_are_inclusive(self):
        assert signal_level(0.01, 0.02, 0.20) == HealthState.GREEN
        assert signal_level(0.02, 0.02, 0.20) == HealthState.YELLOW
        assert signal_level(0.20, 0.02, 0.20) == HealthState.RED

    def test_states_order_by_severity(self):
        assert HealthState.GREEN < HealthState.YELLOW < HealthState.RED
        assert HealthState.RED.label == "RED"


class TestClassify:
    def test_all_quiet_is_green(self):
        signals = {"loss_ewma": 0.0, "save_queue_depth": 1.0,
                   "recovery_p99": 0.0, "replay_discards": 0}
        assert classify(signals) == HealthState.GREEN

    def test_one_yellow_signal_makes_yellow(self):
        signals = {"loss_ewma": 0.05, "save_queue_depth": 0.0,
                   "recovery_p99": 0.0, "replay_discards": 0}
        assert classify(signals) == HealthState.YELLOW

    def test_single_red_vote_is_only_yellow(self):
        # The anti-flap property: one saturated signal cannot declare an
        # SA dead on its own.
        signals = {"loss_ewma": 0.9, "save_queue_depth": 0.0,
                   "recovery_p99": 0.0, "replay_discards": 0}
        assert classify(signals) == HealthState.YELLOW

    def test_two_red_votes_make_red(self):
        signals = {"loss_ewma": 0.9, "save_queue_depth": 10.0,
                   "recovery_p99": 0.0, "replay_discards": 0}
        assert classify(signals) == HealthState.RED

    def test_red_votes_parameter(self):
        signals = {"loss_ewma": 0.9, "save_queue_depth": 0.0,
                   "recovery_p99": 0.0, "replay_discards": 0}
        assert classify(signals, red_votes=1) == HealthState.RED

    def test_unknown_signals_ignored(self):
        assert classify({"cpu_temperature": 1e9}) == HealthState.GREEN

    def test_custom_thresholds(self):
        strict = HealthThresholds(loss=(0.001, 0.01))
        assert classify({"loss_ewma": 0.005}, thresholds=strict) == (
            HealthState.YELLOW
        )
        assert strict.for_signal("loss_ewma") == (0.001, 0.01)
        assert DEFAULT_THRESHOLDS.for_signal("nonsense") is None


class TestVote:
    def test_all_green(self):
        assert vote([HealthState.GREEN] * 3) == HealthState.GREEN

    def test_empty_levels_are_green(self):
        assert vote([]) == HealthState.GREEN

    def test_any_yellow_lifts_to_yellow(self):
        levels = [HealthState.GREEN, HealthState.YELLOW, HealthState.GREEN]
        assert vote(levels) == HealthState.YELLOW

    def test_single_red_is_only_yellow(self):
        assert vote([HealthState.RED, HealthState.GREEN]) == HealthState.YELLOW

    def test_red_quorum(self):
        assert vote([HealthState.RED, HealthState.RED]) == HealthState.RED
        assert vote([HealthState.RED], red_votes=1) == HealthState.RED


def observed_export(loss: float = 0.0, discards: int = 0) -> dict:
    hub = MetricsHub("health-test")
    for index in range(2):
        sa = hub.sub(f"sa{index}")
        sa.ewma("loss_ewma").observe(loss if index else 0.0)
        sa.counter("replay_discards").inc(discards if index else 0)
        sa.counter("resets").inc()
        sa.gauge("save_queue_depth").set(1.0)
        sa.series("save_queue_depth").sample(1e-3, 1.0 + index)
        sa.histogram("recovery_latency").observe(2e-4)
        sa.gauge("path_transitions").set(0.0)
    return hub.as_dict()


class TestHealthRows:
    def test_one_row_per_label(self):
        rows = health_rows(observed_export())
        assert [row["label"] for row in rows] == ["sa0", "sa1"]
        assert all(row["recoveries"] == 1 for row in rows)
        assert all(row["resets"] == 1 for row in rows)

    def test_peak_depth_from_series_not_last_gauge(self):
        rows = health_rows(observed_export())
        assert rows[1]["save_queue_depth"] == 2.0

    def test_signals_drive_state(self):
        rows = health_rows(observed_export(loss=0.5, discards=500))
        assert rows[0]["state"] == "GREEN"
        assert rows[1]["state"] == "RED"

    def test_unlabeled_export_yields_single_row(self):
        hub = MetricsHub("single")
        hub.ewma("loss_ewma").observe(0.0)
        rows = health_rows(hub.as_dict())
        assert len(rows) == 1
        assert rows[0]["label"] == "-"

    def test_render_table(self):
        table = render_health_table(health_rows(observed_export(loss=0.5,
                                                                discards=500)))
        assert "sa0" in table and "sa1" in table
        assert "overall: 1 GREEN, 1 RED" in table

    def test_render_empty(self):
        assert "no SAs" in render_health_table([])
