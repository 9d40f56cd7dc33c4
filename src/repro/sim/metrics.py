"""Time series for sampled run metrics.

:class:`TimeSeries` holds ``(time, value)`` samples with simple queries;
the observability hub (:mod:`repro.obs.hub`) keeps one per sampled
instrument.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimeSeries:
    """(time, value) samples in insertion order."""

    name: str
    samples: list[tuple[float, float]] = field(default_factory=list)

    def sample(self, time: float, value: float) -> None:
        """Append one sample."""
        self.samples.append((time, value))

    @property
    def values(self) -> list[float]:
        """All sampled values in order."""
        return [value for _, value in self.samples]

    @property
    def times(self) -> list[float]:
        """All sample times in order."""
        return [time for time, _ in self.samples]

    def last_value(self, default: float = 0.0) -> float:
        """The most recent sampled value (``default`` when empty)."""
        return self.samples[-1][1] if self.samples else default
