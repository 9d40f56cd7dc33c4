"""Tests for repro.obs.trend (EWMA control bands over run history)."""

from repro.obs.archive import KIND_OBS, RunSnapshot
from repro.obs.hub import MetricsHub, QuantileSketch
from repro.obs.trend import (
    compute_trend,
    history_signals,
    render_history_table,
    signal_value,
)


def snap(counter=None, gauge=None, samples=None, histogram=None,
         name="run"):
    snapshot = RunSnapshot(kind=KIND_OBS, name=name)
    if counter is not None:
        snapshot.signals["counters"]["events"] = counter
    if gauge is not None:
        snapshot.signals["gauges"]["level"] = gauge
    if samples is not None:
        snapshot.signals["samples"]["lat"] = samples
    if histogram is not None:
        snapshot.signals["histograms"]["lat"] = histogram
    return snapshot


class TestSignalValue:
    def test_bare_name_counter_then_gauge(self):
        snapshot = snap(counter=7, gauge=0.5)
        assert signal_value(snapshot, "events") == 7.0
        assert signal_value(snapshot, "level") == 0.5
        assert signal_value(snapshot, "missing") is None

    def test_sample_stats(self):
        snapshot = snap(samples=[1.0, 2.0, 3.0, 4.0])
        assert signal_value(snapshot, "lat@mean") == 2.5
        assert signal_value(snapshot, "lat@max") == 4.0
        assert signal_value(snapshot, "lat@p50") == 2.5

    def test_histogram_stats(self):
        hist = MetricsHub("run").histogram("lat")
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        snapshot = snap(histogram=hist.as_dict())
        assert signal_value(snapshot, "lat@mean") > 0.0
        assert signal_value(snapshot, "lat@max") == 0.004
        assert signal_value(snapshot, "lat@p99") >= 0.004

    def test_sketch_stats(self):
        sketch = QuantileSketch()
        for value in (0.001, 0.002, 0.004):
            sketch.observe(value)
        snapshot = snap(histogram=sketch.as_dict())
        assert signal_value(snapshot, "lat@max") == 0.004
        assert signal_value(snapshot, "lat@p50") >= 0.002 / 1.1

    def test_bad_stat_is_none(self):
        snapshot = snap(samples=[1.0, 2.0])
        assert signal_value(snapshot, "lat@median") is None
        assert signal_value(snapshot, "lat@pxyz") is None
        assert signal_value(snapshot, "lat@p150") is None


class TestComputeTrend:
    def test_flat_history_no_anomalies(self):
        points = compute_trend([snap(counter=5) for _ in range(6)], "events")
        assert len(points) == 6
        assert not any(point.anomaly for point in points)
        assert all(point.center == 5.0 for point in points)

    def test_departure_from_flat_history_flags(self):
        snapshots = [snap(counter=5) for _ in range(4)] + [snap(counter=6)]
        points = compute_trend(snapshots, "events")
        assert points[-1].anomaly

    def test_first_two_points_never_flag(self):
        # One point establishes nothing; the second only seeds variance.
        points = compute_trend([snap(counter=1), snap(counter=100)], "events")
        assert not any(point.anomaly for point in points)

    def test_noisy_history_tolerates_noise(self):
        values = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 10.4]
        points = compute_trend([snap(gauge=v) for v in values], "level")
        assert not any(point.anomaly for point in points)

    def test_big_jump_after_noisy_history_flags(self):
        values = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 30.0]
        points = compute_trend([snap(gauge=v) for v in values], "level")
        assert points[-1].anomaly

    def test_missing_signal_skipped(self):
        snapshots = [snap(counter=5), snap(gauge=1.0), snap(counter=5)]
        points = compute_trend(snapshots, "events")
        assert len(points) == 2

    def test_deterministic(self):
        snapshots = [snap(gauge=v) for v in (1.0, 2.0, 1.5, 9.0)]
        first = compute_trend(snapshots, "level")
        second = compute_trend(snapshots, "level")
        assert [(p.value, p.center, p.band, p.anomaly) for p in first] \
            == [(p.value, p.center, p.band, p.anomaly) for p in second]


class TestHistorySignals:
    def test_filters_to_resolvable(self):
        snapshots = [snap(counter=1)]
        assert history_signals(snapshots, ["events", "absent"]) == ["events"]

    def test_defaults_filtered(self):
        snapshot = RunSnapshot(kind=KIND_OBS, name="r")
        snapshot.signals["counters"]["replay_discards"] = 0
        assert history_signals([snapshot]) == ["replay_discards"]


class TestRenderHistoryTable:
    def test_empty_archive_message(self):
        assert "no archived runs" in render_history_table([])

    def test_marks_anomalies_and_counts(self):
        snapshots = [snap(counter=5) for _ in range(4)] + [snap(counter=9)]
        text = render_history_table(snapshots, ["events"])
        assert "9!" in text
        assert "1 anomaly point(s)" in text
        assert "5 run(s)" in text

    def test_byte_identical_replay(self, tmp_path):
        # Render from live snapshots, then from the archive alone.
        from repro.obs.archive import RunArchive

        # Distinct contents: identical snapshots would dedup to one
        # archived run (content addressing working as designed), so use
        # four different runs for a 4-row replay.
        snapshots = [snap(counter=c) for c in (5, 6, 5.5, 7)]
        live = render_history_table(snapshots, ["events"])
        archive = RunArchive(tmp_path / "wh")
        for snapshot in snapshots:
            archive.add(snapshot)
        replayed = render_history_table(archive.history(), ["events"])
        assert replayed == live
