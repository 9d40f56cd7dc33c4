"""The persistent-memory model behind SAVE and FETCH (system S8).

The paper's assumptions, made explicit:

* "The content of the persistent memory of a computer will not be
  corrupted or erased by a reset" — the committed value survives
  :meth:`PersistentStore.crash`.
* "The execution of SAVE takes some time, during which the computer can
  still send (or receive) messages" — a save begun at ``t`` with value
  ``v`` only becomes the committed value at ``t + t_save``.
* A reset during an in-flight save aborts it; the previously committed
  value remains (write-then-rename atomicity, as a real implementation
  would use).  This is precisely the case that makes the fetched value lag
  by up to ``K`` *two* intervals behind the live counter, giving the
  ``2K`` leap.

The store counts overlapping saves: the paper's sizing rule (``K`` at
least the number of messages sendable during one save) exists to keep
``max_concurrent_saves`` at 1, and experiment E6 shows it climbing when
``K`` is set below the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.process import SimProcess
from repro.util.validation import check_non_negative

#: Listener signature: ``(record)`` invoked when a save starts or commits.
SaveListener = Callable[["SaveRecord"], None]


@dataclass
class SaveRecord:
    """The lifecycle of one SAVE operation."""

    value: int
    started_at: float
    commit_due_at: float
    committed: bool = False
    aborted: bool = False
    synchronous: bool = False


class PersistentStore(SimProcess):
    """Persistent memory holding one integer (a sequence-number checkpoint).

    Args:
        engine: the simulation engine.
        name: trace name, e.g. ``"disk:p"``.
        t_save: duration of a SAVE (paper: 100 us).  The paper notes "the
            amount of time taken by every execution of SAVE can be
            different according to the current load of CPU. Therefore, we
            pick a reasonable upper bound" — so ``t_save`` here is that
            *upper bound*, and ``duration_model`` can make individual
            saves faster.
        t_fetch: duration of a FETCH (charged by callers of
            :meth:`fetch_delay`; reading the value itself is synchronous).
        initial_value: the checkpoint written when the SA was established
            (the paper's processes start with ``lst`` = 1 at p / 0 at q,
            which must be on disk for the very first FETCH to work).
        duration_model: optional callable returning the duration of the
            next save; values are clamped to ``[0, t_save]`` so the
            sizing rule (computed from the upper bound) stays sound.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        t_save: float,
        t_fetch: float = 0.0,
        initial_value: int = 0,
        duration_model: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(engine, name)
        check_non_negative("t_save", t_save)
        check_non_negative("t_fetch", t_fetch)
        self.t_save = t_save
        self.t_fetch = t_fetch
        self.duration_model = duration_model
        self._committed = initial_value
        self._in_flight: list[tuple[SaveRecord, Event]] = []
        self._listeners: list[SaveListener] = []
        # Statistics.
        self.saves_started = 0
        self.saves_committed = 0
        self.saves_aborted = 0
        self.fetches = 0
        self.max_concurrent_saves = 0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def committed_value(self) -> int:
        """The value FETCH would return right now."""
        return self._committed

    @property
    def save_in_flight(self) -> bool:
        """Whether at least one SAVE has started but not committed."""
        return bool(self._in_flight)

    @property
    def in_flight_count(self) -> int:
        """How many SAVEs have started but not committed (obs signal:
        ``save_queue_depth``; >1 means the sizing rule is violated)."""
        return len(self._in_flight)

    def queue_wait(self) -> float:
        """Time until the newest in-flight SAVE commits (0 when idle).

        On a shared-store client this is the device queueing delay the
        obs ``save_wait`` gauge tracks; on a private store it never
        exceeds ``t_save``.
        """
        if not self._in_flight:
            return 0.0
        return max(
            0.0,
            max(record.commit_due_at for record, _ in self._in_flight) - self.now,
        )

    def add_listener(self, listener: SaveListener) -> None:
        """Register a callback fired at save start and at save commit."""
        self._listeners.append(listener)

    def _notify(self, record: SaveRecord) -> None:
        for listener in self._listeners:
            listener(record)

    # ------------------------------------------------------------------
    # SAVE
    # ------------------------------------------------------------------
    def begin_save(
        self,
        value: int,
        on_commit: Callable[[], None] | None = None,
        synchronous: bool = False,
    ) -> SaveRecord:
        """Start a SAVE of ``value``; it commits ``t_save`` later.

        The paper runs routine saves "in the background so that it does not
        block the normal communication"; ``synchronous`` marks the one
        blocking save performed on wake-up (semantics in the store are
        identical — blocking is the *caller's* behaviour — the flag exists
        for traces and statistics).
        """
        record = SaveRecord(
            value=value,
            started_at=self.now,
            commit_due_at=self._save_commit_time(),
            synchronous=synchronous,
        )
        self.saves_started += 1
        self.trace("save_start", value=value, synchronous=synchronous)
        self._notify(record)
        event = self.engine.call_at(
            record.commit_due_at, self._commit, record, on_commit
        )
        self._in_flight.append((record, event))
        self.max_concurrent_saves = max(self.max_concurrent_saves, len(self._in_flight))
        return record

    def _save_commit_time(self) -> float:
        """When the SAVE starting now will commit (subclass hook).

        The private store charges its own (possibly modelled) duration;
        a gateway's shared-store client instead reserves a slot on the
        contended device.
        """
        duration = self.t_save
        if self.duration_model is not None:
            duration = min(max(0.0, self.duration_model()), self.t_save)
        return self.now + duration

    def _commit(self, record: SaveRecord, on_commit: Callable[[], None] | None) -> None:
        self._in_flight = [(r, e) for r, e in self._in_flight if r is not record]
        record.committed = True
        self._committed = record.value
        self.saves_committed += 1
        self.busy_time += record.commit_due_at - record.started_at
        self.trace("save_commit", value=record.value)
        self._notify(record)
        if on_commit is not None:
            on_commit()

    # ------------------------------------------------------------------
    # FETCH
    # ------------------------------------------------------------------
    def fetch(self) -> int:
        """FETCH: return the last committed value."""
        self.fetches += 1
        self.trace("fetch", value=self._committed)
        return self._committed

    def fetch_delay(self) -> float:
        """The simulated duration callers charge for a FETCH."""
        return self.t_fetch

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def crash(self) -> int:
        """A reset hits the host: abort every in-flight save.

        The committed value is untouched (persistent memory survives).

        Returns:
            The number of saves aborted.
        """
        aborted = 0
        for record, event in self._in_flight:
            event.cancel()
            record.aborted = True
            aborted += 1
            self.trace("save_abort", value=record.value)
        self._in_flight.clear()
        self.saves_aborted += aborted
        return aborted
