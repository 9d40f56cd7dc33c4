"""The endpoint lifecycle Section 4 gives ``p`` and ``q`` alike.

A reset takes the host down and sets ``wait``: volatile state is lost
and the store's in-flight SAVEs abort.  The host stays down ``down_for``
seconds, or until :meth:`Endpoint.wake`.  The wake runs the variant's
recovery (:meth:`Endpoint._on_wake`), whose last step resumes the
endpoint at a counter value (:meth:`Endpoint._resume`): ``s`` for the
sender, the window's right edge ``r`` for the receiver.  Each recovery
is written once for both sides: the unprotected cold start, Section 4's
:class:`SaveFetchWake` and the ceiling's
:class:`~repro.core.ceiling.CeilingWake`.

**One pending step.**  A recovery is a chain of steps: the timed wake,
the FETCH delay, then the wake SAVE's commit (in the ``skip_wake_save``
ablation, the resume itself).  Each is wrapped by :meth:`Endpoint._step`,
and the endpoint queues its own through :meth:`Endpoint._queue_step`,
which keeps the one pending step.  A reset cancels it, and its
``store.crash()`` cancels the SAVE's commit; an explicit wake cancels a
pending timed wake.  So an interrupted recovery never resumes: no
endpoint clears ``wait`` while it is down, and none wakes before its
latest reset's ``down_for`` has passed.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.persistent import PersistentStore
from repro.ipsec.costs import CostModel
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.process import SimProcess
from repro.util.validation import (
    check_finite_non_negative,
    check_non_negative_int,
    check_positive_int,
)

#: How a recovery step was queued: the ``(time, sequence)`` of each
#: queueing since its root (a reset, or an explicit wake), and whether
#: that root ran between engine runs.  The sender's traffic clock reads
#: it to order a resume against a tick due at the same instant.
Recovery = tuple[tuple[tuple[float, int], ...], bool]


class Endpoint(SimProcess):
    """Host state and the reset/wake lifecycle of one endpoint.

    A side supplies :meth:`_go_down` and :meth:`_resume_at`; a variant
    supplies :meth:`_on_wake`.

    Attributes:
        store: the persistent store (``None`` for the unprotected variant).
        is_up: whether the host is up.
        wait: Section 4's ``wait``: set by a reset, cleared by the resume.
        reset_records: the side's record of each reset, in order.
    """

    def __init__(self, engine: Engine, name: str, costs: CostModel) -> None:
        super().__init__(engine, name)
        self.costs = costs
        self.store: PersistentStore | None = None
        self.is_up = True
        self.wait = False
        self.reset_records: list[Any] = []
        self._resume_listeners: list[Callable[[], None]] = []
        # The one queued recovery step, and how the running one was queued.
        self._pending: Event | None = None
        self._recovery: Recovery = ((), False)

    def _attach_store(self, store: PersistentStore | None, initial_value: int) -> None:
        """Use ``store``, or a private one built from the cost model that
        holds ``initial_value``, the checkpoint written at SA setup."""
        if store is None:
            store = PersistentStore(
                self.engine,
                f"disk:{self.name}",
                t_save=self.costs.t_save,
                t_fetch=self.costs.t_fetch,
                initial_value=initial_value,
            )
        self.store = store

    def add_resume_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback invoked when post-reset recovery completes."""
        self._resume_listeners.append(listener)

    # ------------------------------------------------------------------
    # Reset, wake and resume
    # ------------------------------------------------------------------
    def reset(self, down_for: float | None = 0.0) -> Any:
        """A reset hits the host: volatile state is lost.

        Args:
            down_for: how long the host stays down before waking.  ``None``
                means "stay down until :meth:`wake` is called explicitly".
                A reset while the host is down or recovering cancels that
                recovery, so only the latest ``down_for`` counts.

        Returns:
            The (still-incomplete) reset record for this cycle.

        Raises:
            ValueError: ``down_for`` is negative, NaN or infinite; nothing
                has changed.
        """
        if down_for is not None:
            check_finite_non_negative("down_for", down_for)
        store = self.store
        save_in_flight = store is not None and store.save_in_flight
        self.is_up = False
        self.wait = True  # the paper's reset action: wait := true
        self._cancel_step()
        self._recovery = ((), not self.engine.running)
        if down_for is not None:
            self._queue_step(down_for, self._wake)
        record = self._go_down(save_in_flight)
        self.reset_records.append(record)
        if store is not None:
            store.crash()
        return record

    def wake(self) -> None:
        """The host comes back up now, ahead of (or without) a timed wake."""
        if not self.is_up:
            self._cancel_step()
            self._recovery = ((), not self.engine.running)
            self._wake()

    def _wake(self) -> None:
        self.is_up = True
        record = self.reset_records[-1]
        record.wake_time = self.now
        self.trace("wake")
        self._on_wake(record)

    def _resume(self, at: int, fetched: int | None = None) -> None:
        """The recovery's last step: ``wait := false``, resuming at ``at``
        (``fetched``: what the recovery read from the store, if it did)."""
        self.wait = False
        record = self.reset_records[-1]
        record.resume_time = self.now
        self._resume_at(record, at, fetched)
        for listener in self._resume_listeners:
            listener()

    # ------------------------------------------------------------------
    # The recovery's steps
    # ------------------------------------------------------------------
    def _step(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Wrap ``callback`` as the recovery step about to be queued: when
        it runs, it records how it was queued, for the sender clock."""
        steps, late = self._recovery
        recovery = (steps + ((self.now, self.engine.scheduled),), late)

        def step() -> None:
            self._pending = None
            self._recovery = recovery
            callback()

        return step

    def _queue_step(self, delay: float, callback: Callable[[], None]) -> None:
        """Queue the recovery's next step as the one pending step."""
        self._pending = self.call_later(delay, self._step(callback))

    def _cancel_step(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _after_fetch(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the store's FETCH delay has passed."""
        delay = self.store.fetch_delay()  # type: ignore[union-attr]
        if delay > 0:
            self._queue_step(delay, callback)
        else:
            callback()

    # ------------------------------------------------------------------
    # What a side and a variant supply
    # ------------------------------------------------------------------
    def _go_down(self, save_in_flight: bool) -> Any:
        """The side's part of a reset, once the timed wake is queued:
        return its record of the lost state; stop what stops with the host."""
        raise NotImplementedError

    def _on_wake(self, record: Any) -> None:
        """The variant's recovery: the paper's third action."""
        raise NotImplementedError

    def _resume_at(self, record: Any, at: int, fetched: int | None) -> None:
        """What resuming at ``at`` means for the side."""
        raise NotImplementedError


class SaveFetchWake(Endpoint):
    """Section 4's wake, written once for ``p`` and ``q``.

    ``FETCH(x); SAVE(x + 2K); x := x + 2K; lst := x; wait := false``,
    with ``x`` the sender's ``s`` or the receiver's ``r``.  The SAVE is
    synchronous: a second reset can strike before it commits, so the
    endpoint resumes only on its commit.  ``leap_factor`` (2 in the
    paper) and ``skip_wake_save`` are E11's ablation switches.
    """

    def _configure(
        self, k: int, store: PersistentStore | None, leap_factor: int,
        skip_wake_save: bool, lst: int,
    ) -> None:
        self.k = check_positive_int("k", k)
        self.leap_factor = check_non_negative_int("leap_factor", leap_factor)
        self.skip_wake_save = skip_wake_save
        self._attach_store(store, initial_value=lst)
        self.lst = lst  # last stored value (paper: 1 at p, 0 at q)

    def _on_wake(self, record: Any) -> None:
        store: PersistentStore = self.store  # type: ignore[assignment]
        fetched = store.fetch()
        record.fetched = fetched
        leaped = fetched + self.leap_factor * self.k

        def resume() -> None:
            self.lst = leaped
            self._resume(leaped, fetched)

        if self.skip_wake_save:
            # Ablation: use the leaped number without persisting it first.
            self._queue_step(store.fetch_delay(), resume)
            return

        def save() -> None:
            # "it will wait for the SAVE to finish before it sends the
            # next message" — resume only on commit.
            store.begin_save(leaped, on_commit=self._step(resume), synchronous=True)

        self._after_fetch(save)
