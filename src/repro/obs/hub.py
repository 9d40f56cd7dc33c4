"""The metrics registry: one hub per run, instruments by name.

:class:`MetricsHub` is the single place a run's health signals live.
Components never own instrument objects across module boundaries — they
ask the hub (``hub.counter("replay_discards")``) and the hub returns the
one live instrument for that name, creating it on first use.  Four
instrument kinds cover everything the controller and the exporters need:

* :class:`HubCounter` — monotonic event count (``inc``).
* :class:`Gauge` — last-write-wins level (``set``); the
  :class:`~repro.obs.sampler.Sampler` snapshots gauges into time series.
* :class:`EwmaGauge` — exponentially weighted moving average over
  observations; the controller's smoothed loss signal.
* :class:`QuantileSketch` — sparse log-bucket histogram, 8 buckets per
  octave; memory bounded by the value range, not the observation count
  (recovery latencies).  The fleet folds convergence times into the
  same type, so every distribution in the repo merges one way.

**Labels and fan-in.**  A multiplexing driver (the gateway) gives each
SA its own *sub-hub* (``hub.sub("sa3")``): the same instrument API, but
every name is prefixed ``"sa3/"`` and registered in the *root* hub, so
one export walks every SA's signals.  :meth:`MetricsHub.rollup` is the
label fan-in: it sums same-suffix instruments across labels into the
unlabeled base name, which is what campaign-level aggregation stores.

**The zero-overhead-off invariant.**  :class:`NullHub` is the disabled
hub: ``enabled`` is pinned ``False`` (flipping it on raises, exactly like
:class:`~repro.sim.trace.NullTraceRecorder`), and every factory method
returns a shared no-op instrument.  Wiring code must check
``hub.enabled`` *once, at build time* and attach nothing when it is
off — not guard per-event call sites — so a disabled-hub run schedules
the same events, draws the same random numbers, and produces
byte-identical results to a build that predates the hub.  The parity
tests in ``tests/obs/test_parity.py`` and the CI engine perf gate pin
this.

The module-level *ambient* hub (:func:`default_hub` / :func:`use_hub`)
is how batch drivers reach engines built deep inside scenario helpers:
the fleet runner installs a hub around a task, and every
``build_protocol`` / ``Gateway`` call inside the scenario picks it up —
the same pattern as ``Engine.default_hard_event_limit``.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.sim.metrics import TimeSeries

#: Default smoothing factor for :class:`EwmaGauge` (weight of the newest
#: observation; ~0.25 tracks a regime shift within a handful of samples
#: without chasing single-packet noise).
DEFAULT_EWMA_ALPHA = 0.25

class HubCounter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A named last-write-wins level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class EwmaGauge:
    """Exponentially weighted moving average of observed values.

    The first observation primes the average (no bias toward an
    arbitrary zero start); after that
    ``value := alpha * x + (1 - alpha) * value``.
    """

    __slots__ = ("name", "alpha", "value", "observations")

    def __init__(self, name: str, alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.name = name
        self.alpha = alpha
        self.value = 0.0
        self.observations = 0

    def observe(self, x: float) -> None:
        if self.observations == 0:
            self.value = float(x)
        else:
            self.value += self.alpha * (float(x) - self.value)
        self.observations += 1


#: Sub-buckets per octave in :class:`QuantileSketch` — 8 log2-uniform
#: slices per power of two, giving a guaranteed relative error of at
#: most 2**(1/8) - 1 (~9.05%) per quantile.
SKETCH_SUBBUCKETS = 8

#: Exclusive upper edges of the sub-buckets within one octave, as
#: mantissa multipliers in [1, 2].
_MANTISSA_EDGES = tuple(
    2.0 ** (k / SKETCH_SUBBUCKETS) for k in range(SKETCH_SUBBUCKETS + 1)
)

#: Guaranteed worst-case relative error of a sketch quantile.  Every
#: serialized sketch carries it, and :meth:`QuantileSketch.from_dict`
#: refuses a payload cut at any other resolution: its bucket indices
#: would name other ranges.
SKETCH_RELATIVE_ERROR = 2.0 ** (1.0 / SKETCH_SUBBUCKETS) - 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``.

    Raises:
        ValueError: on an empty sequence or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


class QuantileSketch:
    """Streaming quantiles over positive values in bounded memory.

    The hub's histogram instrument and the fleet's convergence-time
    distribution.  A sparse log-bucket histogram with
    :data:`SKETCH_SUBBUCKETS` slices per octave: bucket edges are the
    process-wide constants ``2**(i/8)``, so sketches from any SA, task,
    shard, worker, or run merge by plain vector addition, and ``merge``
    is associative and commutative by construction.  The buckets are
    sparse, so the range is every positive finite float.

    :meth:`quantile` returns the *upper edge* of the bucket holding the
    ``ceil(q * count)``-th order statistic, clamped to the observed
    maximum: a conservative estimate that never understates and is
    within :data:`SKETCH_RELATIVE_ERROR` of the true order statistic.
    Non-positive values (possible in principle for a degenerate metric)
    count toward ranks via an underflow bucket answered by the exact
    minimum.
    """

    __slots__ = ("counts", "underflow", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        #: sparse bucket table: global bucket index -> count.
        self.counts: dict[int, int] = {}
        self.underflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @staticmethod
    def bucket_index(x: float) -> int:
        """Global bucket index of positive ``x`` (octave * 8 + slice)."""
        mantissa, exponent = math.frexp(x)  # x = m * 2**e, m in [0.5, 1)
        octave = exponent - 1
        slice_index = bisect_right(_MANTISSA_EDGES, 2.0 * mantissa) - 1
        return octave * SKETCH_SUBBUCKETS + slice_index

    @staticmethod
    def bucket_upper_bound(index: int) -> float:
        """Exclusive upper edge of global bucket ``index``."""
        octave, slice_index = divmod(index, SKETCH_SUBBUCKETS)
        return _MANTISSA_EDGES[slice_index + 1] * 2.0 ** octave

    def observe(self, x: float) -> None:
        x = float(x)
        if x > 0.0 and math.isfinite(x):
            index = self.bucket_index(x)
            self.counts[index] = self.counts.get(index, 0) + 1
        else:
            self.underflow += 1
        self.count += 1
        self.total += x
        if x < self.minimum:
            self.minimum = x
        if x > self.maximum:
            self.maximum = x

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (vector addition on the fixed buckets)."""
        for index, bucket_count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + bucket_count
        self.underflow += other.underflow
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Conservative ``q``-quantile (``q`` in [0, 1]); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = self.underflow
        if seen >= rank and self.underflow:
            return self.minimum
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return min(self.bucket_upper_bound(index), self.maximum)
        return self.maximum

    def quantile_bounds(self, q: float) -> tuple[float, float]:
        """``(lo, hi)`` bounds containing the true ``q``-quantile.

        ``hi`` is the conservative :meth:`quantile`; ``lo`` divides out
        the documented :data:`SKETCH_RELATIVE_ERROR` (<=9.05%), clamped
        to the observed minimum.  Degenerate cases are exact: empty ->
        ``(0.0, 0.0)``; a single observation or an all-equal stream
        (min == max) -> the value itself with zero width.  Cross-run
        diffing gates on these bounds, which is what makes sketch noise
        unable to fake a regression.
        """
        if self.count == 0:
            return (0.0, 0.0)
        if self.minimum == self.maximum:
            return (self.maximum, self.maximum)
        high = self.quantile(q)
        if high <= 0.0:
            # Underflow-resolved quantile: the exact minimum answered.
            return (min(self.minimum, high), high)
        low = high / (1.0 + SKETCH_RELATIVE_ERROR)
        if math.isfinite(self.minimum):
            low = max(low, self.minimum)
        return (min(low, high), high)

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "underflow": self.underflow,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "relative_error": SKETCH_RELATIVE_ERROR,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            # Sparse encoding: only occupied buckets, index -> count.
            "buckets": {
                str(index): self.counts[index] for index in sorted(self.counts)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantileSketch":
        """Rebuild from :meth:`as_dict` output (exact round-trip; the
        derived ``mean``/``p50``/``p99`` are recomputed, not trusted).

        Payloads missing ``min``/``max`` (hand-trimmed ones) derive
        honest extremes from the occupied bucket edges: the derived min
        is a bucket *lower* edge (never overstates), the derived max a
        bucket *upper* edge (never understates), so quantiles and diff
        bounds stay conservative.

        Raises:
            ValueError: a non-empty payload whose ``relative_error`` is
                missing or is not :data:`SKETCH_RELATIVE_ERROR` — its
                bucket indices mean other ranges, so it is refused
                rather than misread.
        """
        if (data.get("count") or data.get("buckets")) and (
            data.get("relative_error") != SKETCH_RELATIVE_ERROR
        ):
            raise ValueError(
                "sketch payload has relative_error "
                f"{data.get('relative_error')!r}, not "
                f"{SKETCH_RELATIVE_ERROR!r}: its buckets use another "
                "resolution"
            )
        sketch = cls()
        for index, bucket_count in data.get("buckets", {}).items():
            sketch.counts[int(index)] = int(bucket_count)
        sketch.underflow = int(data.get("underflow", 0))
        sketch.count = int(data.get("count", 0))
        sketch.total = float(data.get("total", 0.0))
        if sketch.count:
            if "min" in data:
                sketch.minimum = float(data["min"])
            elif sketch.counts and not sketch.underflow:
                sketch.minimum = cls.bucket_upper_bound(
                    min(sketch.counts) - 1
                )
            else:
                sketch.minimum = 0.0
            if "max" in data:
                sketch.maximum = float(data["max"])
            elif sketch.counts:
                # The top octave's last edge (2**1024) overflows to inf;
                # no finite value exceeds the largest float.
                sketch.maximum = min(
                    cls.bucket_upper_bound(max(sketch.counts)),
                    sys.float_info.max,
                )
            else:
                sketch.maximum = sketch.minimum
        return sketch


class _Registry:
    """The shared instrument tables behind a hub and all its sub-hubs."""

    __slots__ = ("counters", "gauges", "ewmas", "histograms", "series", "labels")

    def __init__(self) -> None:
        self.counters: dict[str, HubCounter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.ewmas: dict[str, EwmaGauge] = {}
        self.histograms: dict[str, QuantileSketch] = {}
        self.series: dict[str, TimeSeries] = {}
        self.labels: list[str] = []


def split_label(name: str) -> tuple[str, str]:
    """Split a registered name into ``(label, base)``.

    ``"sa3/loss_ewma"`` -> ``("sa3", "loss_ewma")``; an unlabeled name
    has label ``""``.  Nested labels keep everything before the final
    separator (``"gw/sa3/x"`` -> ``("gw/sa3", "x")``).
    """
    label, sep, base = name.rpartition("/")
    if not sep:
        return "", name
    return label, base


class MetricsHub:
    """The run-wide metric registry (see module docstring).

    Args:
        name: run label carried into the manifest (purely descriptive).

    Sub-hubs share the root's registry; only the name prefix differs.
    ``enabled`` is a plain class attribute so the *null* subclass can pin
    it — wiring code checks it once at build time and attaches nothing
    when it is False.
    """

    enabled = True

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._registry = _Registry()
        self._prefix = ""

    # ------------------------------------------------------------------
    # Sub-hubs (labels)
    # ------------------------------------------------------------------
    def sub(self, label: str) -> "MetricsHub":
        """A view of this hub with every name prefixed ``"<label>/"``."""
        if not label or "/" in label:
            raise ValueError(f"label must be non-empty and '/'-free, got {label!r}")
        child = MetricsHub.__new__(MetricsHub)
        child.name = self.name
        child._registry = self._registry
        child._prefix = f"{self._prefix}{label}/"
        full = child._prefix[:-1]
        if full not in self._registry.labels:
            self._registry.labels.append(full)
        return child

    @property
    def label(self) -> str:
        """This hub's label prefix ('' for the root)."""
        return self._prefix[:-1] if self._prefix else ""

    @property
    def labels(self) -> list[str]:
        """Every label registered under the root, in creation order."""
        return list(self._registry.labels)

    # ------------------------------------------------------------------
    # Instrument factories (get-or-create by name)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> HubCounter:
        full = self._prefix + name
        table = self._registry.counters
        found = table.get(full)
        if found is None:
            found = table[full] = HubCounter(full)
        return found

    def gauge(self, name: str) -> Gauge:
        full = self._prefix + name
        table = self._registry.gauges
        found = table.get(full)
        if found is None:
            found = table[full] = Gauge(full)
        return found

    def ewma(self, name: str, alpha: float = DEFAULT_EWMA_ALPHA) -> EwmaGauge:
        full = self._prefix + name
        table = self._registry.ewmas
        found = table.get(full)
        if found is None:
            found = table[full] = EwmaGauge(full, alpha=alpha)
        return found

    def histogram(self, name: str) -> QuantileSketch:
        full = self._prefix + name
        table = self._registry.histograms
        found = table.get(full)
        if found is None:
            found = table[full] = QuantileSketch()
        return found

    def series(self, name: str) -> TimeSeries:
        full = self._prefix + name
        table = self._registry.series
        found = table.get(full)
        if found is None:
            found = table[full] = TimeSeries(full)
        return found

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def iter_instruments(self) -> Iterator[tuple[str, str, Any]]:
        """Yield ``(kind, name, instrument)`` for everything registered,
        sorted by name within each kind."""
        registry = self._registry
        for name in sorted(registry.counters):
            yield "counter", name, registry.counters[name]
        for name in sorted(registry.gauges):
            yield "gauge", name, registry.gauges[name]
        for name in sorted(registry.ewmas):
            yield "ewma", name, registry.ewmas[name]
        for name in sorted(registry.histograms):
            yield "histogram", name, registry.histograms[name]
        for name in sorted(registry.series):
            yield "series", name, registry.series[name]

    def as_dict(self) -> dict[str, Any]:
        """Full JSON-safe export of every registered instrument."""
        registry = self._registry
        return {
            "name": self.name,
            "labels": list(registry.labels),
            "counters": {
                name: c.value for name, c in sorted(registry.counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(registry.gauges.items())
            },
            "ewmas": {
                name: {"value": e.value, "alpha": e.alpha,
                       "observations": e.observations}
                for name, e in sorted(registry.ewmas.items())
            },
            "histograms": {
                name: h.as_dict()
                for name, h in sorted(registry.histograms.items())
            },
            "series": {
                name: [list(sample) for sample in ts.samples]
                for name, ts in sorted(registry.series.items())
            },
        }

    def rollup(self) -> dict[str, Any]:
        """Label fan-in: sum per-label instruments into their base names.

        Counters sum; gauges and EWMA gauges report the max across
        labels (the fleet-health question is "how bad is the worst
        SA"); histograms merge bucket-wise.  Unlabeled instruments pass
        through.  The result is JSON-safe and is what the fleet runner
        stores per task.
        """
        counters: dict[str, int] = {}
        for name, counter in self._registry.counters.items():
            base = split_label(name)[1]
            counters[base] = counters.get(base, 0) + counter.value
        worst: dict[str, float] = {}
        for name, gauge in self._registry.gauges.items():
            base = split_label(name)[1]
            worst[base] = max(worst.get(base, -math.inf), gauge.value)
        for name, ewma in self._registry.ewmas.items():
            base = split_label(name)[1]
            worst[base] = max(worst.get(base, -math.inf), ewma.value)
        merged: dict[str, QuantileSketch] = {}
        for name, histogram in self._registry.histograms.items():
            base = split_label(name)[1]
            if base not in merged:
                merged[base] = QuantileSketch()
            merged[base].merge(histogram)
        return {
            "labels": len(self._registry.labels),
            "counters": dict(sorted(counters.items())),
            "worst_gauges": dict(sorted(worst.items())),
            "histograms": {
                name: merged[name].as_dict() for name in sorted(merged)
            },
        }


class _NullInstrument:
    """One shared do-nothing instrument standing in for every kind."""

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    alpha = DEFAULT_EWMA_ALPHA
    observations = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, x: float) -> None:
        pass

    def sample(self, time: float, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullHub(MetricsHub):
    """The disabled hub — pinned off, shared no-op instruments.

    ``enabled`` refuses to flip on (silently dropping a run's metrics
    after components already skipped probe attachment would be worse
    than an error).  All factories return one shared null instrument;
    ``sub`` returns ``self``; exports are empty.  One instance
    (:data:`NULL_HUB`) serves every disabled run in the process.
    """

    def __init__(self) -> None:
        super().__init__(name="null")

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        if value:
            raise ValueError(
                "NullHub cannot be enabled; build the run with a real "
                "MetricsHub instead"
            )

    def sub(self, label: str) -> "MetricsHub":
        return self

    def counter(self, name: str) -> HubCounter:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def ewma(self, name: str, alpha: float = DEFAULT_EWMA_ALPHA) -> EwmaGauge:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str) -> QuantileSketch:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def series(self, name: str) -> TimeSeries:  # type: ignore[override]
        return _NULL_INSTRUMENT  # type: ignore[return-value]


#: Shared disabled hub (stateless, so one instance serves every run).
NULL_HUB = NullHub()

#: The ambient hub batch drivers install around scenario execution.
_default_hub: MetricsHub = NULL_HUB


def default_hub() -> MetricsHub:
    """The hub ``build_protocol`` / ``Gateway`` use when none is passed."""
    return _default_hub


def merge_rollups(rollups: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold per-task :meth:`MetricsHub.rollup` dicts into one aggregate.

    The campaign-level reduction the fleet runner applies over every
    executed task: counters sum, worst-gauges take the max (worst task
    wins), histograms merge bucket-wise via the fixed shared buckets.
    ``tasks`` counts the rollups folded in; a rollup that is itself a
    merge contributes its own ``tasks`` count, so the fold is
    associative — incremental consumers (the progress stream's
    snapshots) can merge merged outputs without double counting.
    """
    merged: dict[str, Any] = {
        "tasks": 0, "labels": 0, "counters": {}, "worst_gauges": {},
    }
    histograms: dict[str, QuantileSketch] = {}
    for rollup in rollups:
        merged["tasks"] += rollup.get("tasks", 1)
        merged["labels"] += rollup.get("labels", 0)
        for name, value in rollup.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in rollup.get("worst_gauges", {}).items():
            merged["worst_gauges"][name] = max(
                merged["worst_gauges"].get(name, -math.inf), value
            )
        for name, data in rollup.get("histograms", {}).items():
            incoming = QuantileSketch.from_dict(data)
            if name in histograms:
                histograms[name].merge(incoming)
            else:
                histograms[name] = incoming
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["worst_gauges"] = dict(sorted(merged["worst_gauges"].items()))
    merged["histograms"] = {
        name: histograms[name].as_dict() for name in sorted(histograms)
    }
    return merged


@contextmanager
def use_hub(hub: MetricsHub) -> Iterator[MetricsHub]:
    """Install ``hub`` as the ambient default for the ``with`` block.

    This is how the fleet runner reaches engines built deep inside
    scenario helpers without threading a ``hub`` argument through every
    scenario signature.  Not async/thread-safe — the fleet's workers are
    processes, so a module global is exactly as shared as it should be.
    """
    global _default_hub
    previous = _default_hub
    _default_hub = hub
    try:
        yield hub
    finally:
        _default_hub = previous
