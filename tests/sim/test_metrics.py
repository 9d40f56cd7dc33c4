"""Tests for repro.sim.metrics."""

from repro.sim.metrics import TimeSeries


class TestTimeSeries:
    def test_sampling(self):
        series = TimeSeries("x")
        series.sample(0.0, 1.0)
        series.sample(1.0, 2.0)
        assert series.values == [1.0, 2.0]
        assert series.times == [0.0, 1.0]
        assert series.last_value() == 2.0

    def test_last_value_default(self):
        assert TimeSeries("x").last_value(default=-1.0) == -1.0

    def test_empty_series_queries(self):
        # Every query on a never-sampled series answers without raising.
        series = TimeSeries("x")
        assert series.values == []
        assert series.times == []
        assert series.last_value() == 0.0
        assert series.samples == []

