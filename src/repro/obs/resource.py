"""Worker resource probes: CPU, RSS, tracemalloc, slow-task profiling.

Pure-stdlib on purpose (the container has no psutil): CPU time comes
from :func:`os.times`, resident set size from ``/proc/self/statm`` with
a ``resource.getrusage`` fallback for non-Linux hosts, and allocation
peaks from :mod:`tracemalloc` when the stream config opts in.

Two consumers:

* :class:`ResourceProbe` publishes the snapshot as hub instruments
  (``worker/cpu_time``, ``worker/rss_bytes``, ...) so each observed
  session's rollup, and a failing session's metrics file, carry the
  worker's resources alongside protocol counters.
* The raw :func:`resource_snapshot` dict rides worker heartbeat /
  task_finished progress events, which is how the parent's
  :class:`~repro.obs.stream.CampaignView` learns worker CPU and RSS
  without any extra IPC.

:class:`TaskProfiler` is the opt-in cProfile hook: every task runs
under the profiler once a profile dir is set, but a pstats dump is
written only for tasks whose wall time lands at or above a percentile
of the worker's history — cProfile cannot be enabled retroactively, so
"profile the slow ones" necessarily means "profile all, keep the slow
ones".
"""

from __future__ import annotations

import cProfile
import os
import tracemalloc
from bisect import bisect_left, insort
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.obs.hub import MetricsHub

__all__ = [
    "ResourceProbe",
    "TaskProfiler",
    "publish_task_usage",
    "resource_snapshot",
    "rss_bytes",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Current resident set size in bytes (0 when unmeasurable)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS; either way it is a
        # high-water mark, the best available fallback.
        scale = 1 if usage.ru_maxrss > (1 << 30) else 1024
        return int(usage.ru_maxrss) * scale
    except Exception:
        return 0


def resource_snapshot() -> dict[str, Any]:
    """One JSON-safe sample of this process's resource usage."""
    times = os.times()
    snapshot: dict[str, Any] = {
        "cpu_user": times.user,
        "cpu_system": times.system,
        "rss_bytes": rss_bytes(),
    }
    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        snapshot["tracemalloc_current"] = current
        snapshot["tracemalloc_peak"] = peak
    return snapshot


class ResourceProbe:
    """Publishes process resource usage as hub gauges.

    Instruments: ``worker/cpu_time`` (user+system seconds),
    ``worker/cpu_user``, ``worker/cpu_system``, ``worker/rss_bytes``,
    and ``worker/tracemalloc_peak`` when tracing is active.  Pull-based
    like :class:`~repro.obs.probe.HealthProbe`: call :meth:`sample`
    whenever a fresh reading should land in the hub.
    """

    def __init__(self, hub: MetricsHub) -> None:
        self.hub = hub
        self._cpu_time = hub.gauge("worker/cpu_time")
        self._cpu_user = hub.gauge("worker/cpu_user")
        self._cpu_system = hub.gauge("worker/cpu_system")
        self._rss = hub.gauge("worker/rss_bytes")
        self._malloc_peak = hub.gauge("worker/tracemalloc_peak")
        self._cpu_series = hub.series("worker/cpu_time")
        self._rss_series = hub.series("worker/rss_bytes")

    def sample(self, now: float = 0.0) -> dict[str, Any]:
        snapshot = resource_snapshot()
        self._cpu_user.set(snapshot["cpu_user"])
        self._cpu_system.set(snapshot["cpu_system"])
        cpu_total = snapshot["cpu_user"] + snapshot["cpu_system"]
        self._cpu_time.set(cpu_total)
        self._rss.set(snapshot["rss_bytes"])
        self._cpu_series.sample(now, cpu_total)
        self._rss_series.sample(now, snapshot["rss_bytes"])
        if "tracemalloc_peak" in snapshot:
            self._malloc_peak.set(snapshot["tracemalloc_peak"])
        return snapshot


def publish_task_usage(
    hub: MetricsHub,
    before: dict[str, Any],
    after: dict[str, Any],
) -> dict[str, Any]:
    """Publish the delta between two snapshots as per-task gauges.

    Returns the delta dict (``task_cpu``, ``task_rss_growth``, plus
    tracemalloc peak when traced) for riding on progress events.
    """
    delta = {
        "task_cpu": (after["cpu_user"] - before["cpu_user"])
        + (after["cpu_system"] - before["cpu_system"]),
        "task_rss_growth": after["rss_bytes"] - before["rss_bytes"],
    }
    if "tracemalloc_peak" in after:
        delta["tracemalloc_peak"] = after["tracemalloc_peak"]
    hub.gauge("worker/task_cpu").set(delta["task_cpu"])
    hub.gauge("worker/task_rss_growth").set(delta["task_rss_growth"])
    if "tracemalloc_peak" in delta:
        hub.gauge("worker/tracemalloc_peak").set(delta["tracemalloc_peak"])
    return delta


class TaskProfiler:
    """Opt-in cProfile hook that keeps dumps only for slow outliers.

    Every task executes under cProfile (the cost the overhead bench
    budgets for); the dump is written to ``<directory>/<task_id>.pstats``
    only when the task's wall time reaches ``percentile`` of the wall
    times this profiler has seen, and never before ``min_samples`` tasks
    have established a distribution.
    """

    def __init__(
        self,
        directory: str | Path,
        percentile: float = 0.95,
        min_samples: int = 20,
    ) -> None:
        self.directory = Path(directory)
        self.percentile = percentile
        self.min_samples = max(1, min_samples)
        self._walls: list[float] = []  # kept sorted via insort
        self.dumped: list[str] = []

    def threshold(self) -> float | None:
        """Current wall-time cutoff, or None before enough samples."""
        if len(self._walls) < self.min_samples:
            return None
        index = min(
            len(self._walls) - 1,
            int(self.percentile * len(self._walls)),
        )
        return self._walls[index]

    def should_dump(self, wall_time: float) -> bool:
        cutoff = self.threshold()
        return cutoff is not None and wall_time >= cutoff

    def observe(self, wall_time: float) -> None:
        insort(self._walls, wall_time)

    def rank(self, wall_time: float) -> float:
        """Fraction of observed wall times at or below ``wall_time``."""
        if not self._walls:
            return 0.0
        return bisect_left(self._walls, wall_time) / len(self._walls)

    @contextmanager
    def profile(self, task_id: str) -> Iterator[None]:
        """Profile one task; dump pstats iff it lands past the cutoff."""
        import time

        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            wall = time.perf_counter() - start
            dump = self.should_dump(wall)
            self.observe(wall)
            if dump:
                self.directory.mkdir(parents=True, exist_ok=True)
                # Task ids are hierarchical ("g3/gateway_crash/s00000");
                # flatten so every dump lands directly in the profile dir.
                stem = task_id.replace("/", "_").replace(os.sep, "_")
                target = self.directory / f"{stem}.pstats"
                profiler.dump_stats(str(target))
                self.dumped.append(task_id)
