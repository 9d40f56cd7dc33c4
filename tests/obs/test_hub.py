"""Tests for repro.obs.hub — instruments, labels, rollups, the NullHub."""

import math

import pytest

from repro.obs.hub import (
    NULL_HUB,
    EwmaGauge,
    Gauge,
    HubCounter,
    MetricsHub,
    NullHub,
    QuantileSketch,
    default_hub,
    merge_rollups,
    split_label,
    use_hub,
)


class TestInstruments:
    def test_counter_monotonic(self):
        counter = HubCounter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("x")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_ewma_first_observation_primes(self):
        ewma = EwmaGauge("x", alpha=0.5)
        ewma.observe(10.0)
        assert ewma.value == 10.0  # no bias toward a zero start
        ewma.observe(0.0)
        assert ewma.value == pytest.approx(5.0)
        assert ewma.observations == 2

    def test_ewma_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            EwmaGauge("x", alpha=0.0)
        with pytest.raises(ValueError):
            EwmaGauge("x", alpha=1.5)


class TestLogHistogram:
    """The hub's histogram instrument, a log-bucket QuantileSketch."""

    @staticmethod
    def histogram() -> QuantileSketch:
        return MetricsHub("run").histogram("x")

    def test_bucket_index_powers_of_two(self):
        # 1.0 = 2**0 lands in the bucket whose range starts at 2**0.
        index = QuantileSketch.bucket_index(1.0)
        assert QuantileSketch.bucket_upper_bound(index - 1) == 1.0

    def test_observe_tracks_summary(self):
        histogram = self.histogram()
        for value in (1e-4, 2e-4, 4e-4):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.minimum == 1e-4
        assert histogram.maximum == 4e-4
        assert histogram.mean == pytest.approx(7e-4 / 3)

    def test_quantile_conservative_within_one_bucket(self):
        histogram = self.histogram()
        for _ in range(99):
            histogram.observe(1e-4)
        histogram.observe(1e-2)
        # p50 sits in the 1e-4 bucket; the estimate never understates.
        assert 1e-4 <= histogram.quantile(0.5) <= 2e-4
        assert histogram.quantile(0.99) <= 1e-2 * 2
        assert histogram.quantile(1.0) == histogram.maximum

    def test_quantile_empty_and_bounds(self):
        histogram = self.histogram()
        assert histogram.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_merge_is_vector_addition(self):
        left, right = self.histogram(), self.histogram()
        left.observe(1e-4)
        right.observe(1e-2)
        right.observe(2e-2)
        left.merge(right)
        assert left.count == 3
        assert left.minimum == 1e-4
        assert left.maximum == 2e-2
        assert sum(left.counts.values()) == 3

    def test_from_dict_round_trip(self):
        histogram = self.histogram()
        for value in (1e-4, 5e-4, 1e-3):
            histogram.observe(value)
        rebuilt = QuantileSketch.from_dict(histogram.as_dict())
        assert rebuilt.as_dict() == histogram.as_dict()

    def test_empty_as_dict_is_finite(self):
        exported = self.histogram().as_dict()
        assert exported["count"] == 0
        assert exported["min"] == 0.0 and exported["max"] == 0.0
        assert exported["buckets"] == {}


class TestHubRegistry:
    def test_get_or_create_by_name(self):
        hub = MetricsHub("run")
        assert hub.counter("a") is hub.counter("a")
        assert hub.gauge("a") is not hub.counter("a")

    def test_sub_hub_prefixes_and_shares_registry(self):
        hub = MetricsHub("run")
        sa = hub.sub("sa3")
        sa.counter("resets").inc()
        assert hub.counter("sa3/resets").value == 1
        assert sa.label == "sa3"
        assert hub.labels == ["sa3"]

    def test_nested_labels(self):
        hub = MetricsHub("run")
        inner = hub.sub("gw").sub("sa1")
        inner.gauge("x").set(2.0)
        assert hub.gauge("gw/sa1/x").value == 2.0
        assert "gw/sa1" in hub.labels

    def test_sub_rejects_bad_labels(self):
        hub = MetricsHub("run")
        with pytest.raises(ValueError):
            hub.sub("")
        with pytest.raises(ValueError):
            hub.sub("a/b")

    def test_split_label(self):
        assert split_label("sa3/loss_ewma") == ("sa3", "loss_ewma")
        assert split_label("loss_ewma") == ("", "loss_ewma")
        assert split_label("gw/sa3/x") == ("gw/sa3", "x")

    def test_iter_instruments_sorted_within_kind(self):
        hub = MetricsHub("run")
        hub.counter("b").inc()
        hub.counter("a").inc()
        hub.series("s").sample(0.0, 1.0)
        kinds_names = [(kind, name) for kind, name, _ in hub.iter_instruments()]
        assert kinds_names == [("counter", "a"), ("counter", "b"), ("series", "s")]

    def test_as_dict_shape(self):
        hub = MetricsHub("run")
        hub.sub("sa0").ewma("loss_ewma").observe(0.1)
        hub.histogram("lat").observe(2e-4)
        hub.series("depth").sample(0.5, 3.0)
        exported = hub.as_dict()
        assert exported["name"] == "run"
        assert exported["labels"] == ["sa0"]
        assert exported["ewmas"]["sa0/loss_ewma"]["observations"] == 1
        assert exported["histograms"]["lat"]["count"] == 1
        assert exported["series"]["depth"] == [[0.5, 3.0]]


class TestRollup:
    def make_labeled_hub(self) -> MetricsHub:
        hub = MetricsHub("run")
        for index, (discards, loss) in enumerate([(3, 0.1), (5, 0.4)]):
            sa = hub.sub(f"sa{index}")
            sa.counter("replay_discards").inc(discards)
            sa.ewma("loss_ewma").observe(loss)
            sa.histogram("recovery_latency").observe(1e-4 * (index + 1))
        return hub

    def test_counters_sum_across_labels(self):
        rollup = self.make_labeled_hub().rollup()
        assert rollup["counters"]["replay_discards"] == 8
        assert rollup["labels"] == 2

    def test_gauges_report_worst_label(self):
        rollup = self.make_labeled_hub().rollup()
        assert rollup["worst_gauges"]["loss_ewma"] == pytest.approx(0.4)

    def test_histograms_merge(self):
        rollup = self.make_labeled_hub().rollup()
        assert rollup["histograms"]["recovery_latency"]["count"] == 2

    def test_unlabeled_instruments_pass_through(self):
        hub = MetricsHub("run")
        hub.counter("saves").inc(7)
        assert hub.rollup()["counters"]["saves"] == 7

    def test_merge_rollups_folds_tasks(self):
        first = self.make_labeled_hub().rollup()
        second = self.make_labeled_hub().rollup()
        merged = merge_rollups([first, second])
        assert merged["tasks"] == 2
        assert merged["labels"] == 4
        assert merged["counters"]["replay_discards"] == 16
        assert merged["worst_gauges"]["loss_ewma"] == pytest.approx(0.4)
        assert merged["histograms"]["recovery_latency"]["count"] == 4

    def test_merge_rollups_empty(self):
        merged = merge_rollups([])
        assert merged["tasks"] == 0
        assert merged["counters"] == {}
        assert merged["histograms"] == {}


class TestNullHub:
    def test_enabled_is_pinned_false(self):
        hub = NullHub()
        assert hub.enabled is False
        hub.enabled = False  # harmless no-op
        with pytest.raises(ValueError, match="cannot be enabled"):
            hub.enabled = True
        assert hub.enabled is False

    def test_instruments_are_shared_no_ops(self):
        hub = NULL_HUB
        counter = hub.counter("x")
        counter.inc(100)
        assert counter.value == 0
        hub.gauge("g").set(5.0)
        hub.ewma("e").observe(1.0)
        hub.histogram("h").observe(1.0)
        hub.series("s").sample(0.0, 1.0)
        assert hub.as_dict()["counters"] == {}
        assert hub.sub("sa0") is hub

    def test_real_hub_is_enabled(self):
        assert MetricsHub("run").enabled is True
        assert MetricsHub("run").sub("sa0").enabled is True


class TestAmbientHub:
    def test_default_is_null(self):
        assert default_hub() is NULL_HUB

    def test_use_hub_installs_and_restores(self):
        hub = MetricsHub("scoped")
        with use_hub(hub) as installed:
            assert installed is hub
            assert default_hub() is hub
        assert default_hub() is NULL_HUB

    def test_use_hub_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_hub(MetricsHub("scoped")):
                raise RuntimeError("boom")
        assert default_hub() is NULL_HUB
