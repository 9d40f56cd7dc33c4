"""Tests for repro.obs.resource — probes, usage deltas, slow-task profiler."""

import time
import tracemalloc

import pytest

from repro.obs.hub import MetricsHub
from repro.obs.resource import (
    PROFILE_MIN_SAMPLES,
    PROFILE_PERCENTILE,
    ResourceProbe,
    TaskProfiler,
    publish_task_usage,
    resource_snapshot,
    rss_bytes,
)


class TestResourceSnapshot:
    def test_snapshot_keys_and_types(self):
        snapshot = resource_snapshot()
        assert snapshot["cpu_user"] >= 0.0
        assert snapshot["cpu_system"] >= 0.0
        assert isinstance(snapshot["rss_bytes"], int)
        assert "tracemalloc_peak" not in snapshot  # not tracing

    def test_rss_is_plausible(self):
        # A running CPython interpreter occupies at least a few MiB.
        assert rss_bytes() > 1 << 20

    def test_tracemalloc_fields_when_tracing(self):
        tracemalloc.start()
        try:
            blob = ["x"] * 10_000
            snapshot = resource_snapshot()
            assert snapshot["tracemalloc_peak"] >= snapshot[
                "tracemalloc_current"] > 0
            del blob
        finally:
            tracemalloc.stop()


class TestResourceProbe:
    def test_sample_publishes_gauges_and_series(self):
        hub = MetricsHub("probe-test")
        probe = ResourceProbe(hub)
        snapshot = probe.sample(now=1.5)
        export = hub.as_dict()
        gauges = export["gauges"]
        assert gauges["worker/cpu_time"] == pytest.approx(
            snapshot["cpu_user"] + snapshot["cpu_system"]
        )
        assert gauges["worker/rss_bytes"] == snapshot["rss_bytes"]
        cpu_curve = export["series"]["worker/cpu_time"]
        assert [point[0] for point in cpu_curve] == [1.5]

    def test_resample_extends_the_curve(self):
        hub = MetricsHub("probe-test")
        probe = ResourceProbe(hub)
        probe.sample(now=1.0)
        probe.sample(now=2.0)
        curve = hub.as_dict()["series"]["worker/rss_bytes"]
        assert [point[0] for point in curve] == [1.0, 2.0]


class TestPublishTaskUsage:
    def test_delta_computed_and_published(self):
        hub = MetricsHub("usage-test")
        before = {"cpu_user": 1.0, "cpu_system": 0.5, "rss_bytes": 100}
        after = {"cpu_user": 1.4, "cpu_system": 0.6, "rss_bytes": 175}
        delta = publish_task_usage(hub, before, after)
        assert delta["task_cpu"] == pytest.approx(0.5)
        assert delta["task_rss_growth"] == 75
        gauges = hub.as_dict()["gauges"]
        assert gauges["worker/task_cpu"] == pytest.approx(0.5)
        assert gauges["worker/task_rss_growth"] == 75

    def test_tracemalloc_peak_passes_through(self):
        hub = MetricsHub("usage-test")
        before = {"cpu_user": 0, "cpu_system": 0, "rss_bytes": 0}
        after = {"cpu_user": 0, "cpu_system": 0, "rss_bytes": 0,
                 "tracemalloc_peak": 4096}
        delta = publish_task_usage(hub, before, after)
        assert delta["tracemalloc_peak"] == 4096
        assert hub.as_dict()["gauges"]["worker/tracemalloc_peak"] == 4096


class TestTaskProfiler:
    def test_no_threshold_before_min_samples(self, tmp_path):
        profiler = TaskProfiler(tmp_path)
        for _ in range(PROFILE_MIN_SAMPLES - 1):
            profiler.observe(1.0)
        assert profiler.threshold() is None
        assert profiler.should_dump(100.0) is False

    def test_percentile_threshold(self, tmp_path):
        assert PROFILE_PERCENTILE == 0.95 and PROFILE_MIN_SAMPLES == 20
        profiler = TaskProfiler(tmp_path)
        for wall in range(20):  # 0..19
            profiler.observe(float(wall))
        assert profiler.threshold() == 19.0
        assert profiler.should_dump(19.0) is True
        assert profiler.should_dump(18.9) is False

    def test_profile_dumps_only_past_cutoff(self, tmp_path):
        profiler = TaskProfiler(tmp_path)
        # Establish a distribution of ~1ms tasks deterministically.
        for _ in range(PROFILE_MIN_SAMPLES):
            profiler.observe(0.001)
        with profiler.profile("fast"):
            pass  # well under the 1ms cutoff
        assert profiler.dumped == []
        with profiler.profile("slow/one"):
            time.sleep(0.05)
        assert "slow/one" in profiler.dumped
        # Hierarchical ids flatten into the profile dir.
        assert (tmp_path / "slow_one.pstats").exists()

    def test_dump_is_loadable_pstats(self, tmp_path):
        import pstats

        profiler = TaskProfiler(tmp_path)
        for _ in range(PROFILE_MIN_SAMPLES):
            profiler.observe(0.0)
        with profiler.profile("second"):
            sum(range(200_000))
        assert "second" in profiler.dumped
        stats = pstats.Stats(str(tmp_path / "second.pstats"))
        assert stats.total_calls >= 1

    def test_cutoff_evaluated_before_observe(self, tmp_path):
        # A task must not count itself: the decision uses the history
        # *excluding* the task being decided.  One sample short of the
        # minimum there is no cutoff yet; had the task been observed
        # first, it would be the 95th percentile of its own history and
        # dump.
        profiler = TaskProfiler(tmp_path)
        for _ in range(PROFILE_MIN_SAMPLES - 1):
            profiler.observe(0.0)
        with profiler.profile("t"):
            pass
        assert profiler.dumped == []
