"""Structured simulation tracing.

Every interesting occurrence (a send, a delivery, a discard, a reset, a
SAVE commit, an adversary injection, ...) can be recorded as a
:class:`TraceRecord`.  Experiments and tests then query the recorder
instead of scraping printed output.

Recording is cheap (an append) and can be disabled wholesale for
throughput benchmarks via :attr:`TraceRecorder.enabled`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes:
        time: simulated time of the occurrence.
        source: name of the component that recorded it (e.g. ``"p"``,
            ``"q"``, ``"link:p->q"``, ``"adversary"``).
        kind: machine-readable event kind (e.g. ``"send"``, ``"deliver"``,
            ``"discard"``, ``"reset"``, ``"save_commit"``).
        detail: free-form payload (sequence numbers, verdicts, ...).
    """

    time: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v!r}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:.9f}] {self.source} {self.kind} {parts}".rstrip()


class TraceRecorder:
    """An append-only log of :class:`TraceRecord` objects with query helpers.

    Args:
        enabled: start recording immediately (flippable at runtime).
        max_records: optional memory bound.  ``None`` (the default) keeps
            every record — unchanged historical behaviour.  With a bound,
            the recorder becomes a ring buffer over the *newest* records:
            appending beyond the bound evicts the oldest record and
            increments :attr:`dropped`.  Long traced runs (fleet tasks,
            soak scenarios) set a bound so tracing cannot grow without
            limit; queries then see only the retained tail, and consumers
            that need to know whether history was lost check ``dropped``
            (the exported trace-records header carries it).
    """

    def __init__(
        self, enabled: bool = True, max_records: int | None = None
    ) -> None:
        if max_records is not None and max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        self.enabled = enabled
        self.max_records = max_records
        #: Records evicted by the ring bound (0 when unbounded).
        self.dropped = 0
        self._records: list[TraceRecord] = []

    def record(
        self,
        time: float,
        source: str,
        kind: str,
        **detail: Any,
    ) -> None:
        """Append a record (no-op when disabled; evicts oldest at bound)."""
        if not self.enabled:
            return
        self._records.append(TraceRecord(time=time, source=source, kind=kind, detail=detail))
        if self.max_records is not None and len(self._records) > self.max_records:
            # One-in one-out: eviction cost is O(n) per append, but a
            # bounded trace is small by construction and the unbounded
            # default path never reaches this branch.
            del self._records[0]
            self.dropped += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[TraceRecord]:
        """The full record list (do not mutate)."""
        return self._records

    def filter(
        self,
        source: str | None = None,
        kind: str | None = None,
        predicate: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Return records matching all given criteria."""
        out = []
        for record in self._records:
            if source is not None and record.source != source:
                continue
            if kind is not None and record.kind != kind:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def count(self, source: str | None = None, kind: str | None = None) -> int:
        """Count records matching the criteria."""
        return len(self.filter(source=source, kind=kind))

    def last(self, source: str | None = None, kind: str | None = None) -> TraceRecord | None:
        """Return the most recent matching record, or ``None``."""
        matches = self.filter(source=source, kind=kind)
        return matches[-1] if matches else None

    def clear(self) -> None:
        """Drop all records (and forget the eviction count)."""
        self._records.clear()
        self.dropped = 0

    def render(self, limit: int | None = None) -> str:
        """Render the trace (optionally only the last ``limit`` records)."""
        records = self._records if limit is None else self._records[-limit:]
        return "\n".join(str(record) for record in records)


class NullTraceRecorder(TraceRecorder):
    """A recorder that drops everything — the untraced-session fast path.

    Fleet campaigns and experiment sweeps never read the trace (they score
    runs from component counters), yet a default recorder would still pay
    for a :class:`TraceRecord` per send/deliver/discard.  Passing
    :data:`NULL_TRACE` to the engine instead makes :meth:`record` a bare
    no-op, and hot call sites that precompute expensive detail (``repr`` of
    packets) check :attr:`enabled` first and skip the work entirely.

    ``enabled`` is pinned ``False``: flipping it on would silently lose
    records, so it refuses.  It stays a plain attribute (only writes are
    checked), so a hot handler's ``engine.trace.enabled`` read costs no
    call.  All query helpers behave as an empty trace.
    """

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def __setattr__(self, name: str, value: Any) -> None:
        if name == "enabled" and value:
            raise ValueError(
                "NullTraceRecorder cannot be enabled; build the simulation "
                "with a real TraceRecorder instead"
            )
        super().__setattr__(name, value)

    def record(self, time: float, source: str, kind: str, **detail: Any) -> None:
        """Drop the record."""


#: Shared no-op recorder for untraced sessions (it holds no state, so one
#: instance serves every engine, including across fleet worker processes).
NULL_TRACE = NullTraceRecorder()
