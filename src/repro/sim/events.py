"""Scheduled events and the event queue (hierarchical timer-wheel core).

Events are ordered by ``(time, priority, sequence)``.  ``priority`` breaks
ties between events scheduled for the same instant (lower runs first), and
``sequence`` (a monotonically increasing insertion counter) guarantees FIFO
order among equal-priority simultaneous events — the property that makes
simulation runs reproducible.

:class:`EventQueue` is a **hierarchical timer wheel**.  Time is quantised
into 2\\ :sup:`-20`-second ticks.  The *current window* — the
2\\ :sup:`23`-tick (8 s) span the simulation is executing inside — is a
binary heap (``front``), so everything a protocol schedules within its own
near horizon (deliveries, retransmits, one-period timers) runs at C
``heapq`` speed with **one** handling per event, on a heap bounded by one
window's population.  Only genuinely far timers park in three wheel levels
of 1024 slots each (slot widths 8 s / ~2.3 h / ~4 days; the levels span
~2.3 h / ~97 days / ~272 years, and an overflow list catches the rest): a
far push is an O(1) list append, a cancel is an O(1) flag, and dead
entries are dropped the one time their slot is loaded, so cancel-heavy
schedules never pay per-pop skip costs or compaction storms.  When the
front drains, the next occupied slot *cascades*: level-1 slots load
straight into the front (one C ``heapify``), coarser slots redistribute
one level down.  Exact pop order is preserved because slots only bucket —
the heap orders every window by the full ``(time, priority, sequence)``
key.  The wide window is the perf-critical choice: it buys the heap's C
speed for the common case while keeping the heap's size — and therefore
its O(log n) — bound by an 8 s horizon instead of the whole schedule.

The queue stores ``(time, priority, sequence, event, callback, args)``
tuples: tuple comparison is a single C call that short-circuits on
``time`` and can never reach the ``event`` slot because ``sequence`` is
unique.  :meth:`EventQueue.post` schedules a fire-and-forget callback
with *no* :class:`Event` at all — the entry tuple is the event — and is
what internal hot paths that never cancel (link deliveries, one-shot
bookkeeping) use via :meth:`~repro.sim.engine.Engine.post_at` /
``post_later``.  A cancellable :class:`Event` from :meth:`EventQueue.push`
is a plain allocation that keeps its own copy of the scheduling fields
and never references its entry: the entry holds the event, so a
back-reference would make every handle an entry↔event cycle that only the
cyclic garbage collector can free.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping that must run before normal events at the same time.
PRIORITY_EARLY = -10
#: Priority for bookkeeping that must run after normal events at the same time.
PRIORITY_LATE = 10

#: Ticks per simulated second (2**20 — a power of two keeps the float
#: multiply exact for binary-friendly times; ``int()`` of a monotone
#: product is monotone, which is all bucketing needs).
TICK_HZ = 1048576.0

#: log2(slots per wheel level).
_SLOT_BITS = 10
_SLOTS = 1 << _SLOT_BITS          # 1024
_SLOT_MASK = _SLOTS - 1

#: log2(front-window ticks): the front heap covers 2**23 ticks (8 s).
#: Deliberately wide — see the module docstring — so ordinary protocol
#: schedules never touch the wheel levels at all.
_FRONT_BITS = 23
_FRONT_SPAN = 1 << _FRONT_BITS

#: Wheel levels 1..3; level ``i`` slots are one level-``i-1`` span wide
#: (level-0 being the front window), so the wheel spans
#: ``2**(23 + 30)`` ticks (~272 simulated years at TICK_HZ) before the
#: overflow list takes over.  Rows are ``(level, width, span)`` shift
#: counts: a tick belongs to level ``i`` iff it shares the window base's
#: ``span``-aligned prefix, in slot ``(tick >> width) & _SLOT_MASK``.
_LEVELS = 4
_LEVEL_GEOMETRY = tuple(
    (
        level,
        _FRONT_BITS + _SLOT_BITS * (level - 1),
        _FRONT_BITS + _SLOT_BITS * level,
    )
    for level in range(1, _LEVELS)
)
_L1_SPAN = _FRONT_BITS + _SLOT_BITS


class Event:
    """A cancellable callback scheduled at a simulated time.

    Instances are created by :class:`EventQueue.push` /
    :meth:`repro.sim.engine.Engine.call_at`; user code normally only keeps
    them around to call :meth:`cancel`.  The scheduling fields stay
    truthful after the event fires, is drained as cancelled, or is
    dropped by :meth:`EventQueue.clear`.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args",
                 "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        # The queue holding this event, for cancel()'s counter
        # bookkeeping; ``None`` once it has fired or been cleared (a
        # cancelled event never reads it again).
        self._queue: EventQueue | None = None

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if already fired)."""
        # The counter bookkeeping is inlined rather than delegated to the
        # queue: cancellation is on the timer-churn hot path (every
        # re-armed inactivity timer cancels its predecessor).
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is None:
            return
        queue._live -= 1
        dead = queue._dead = queue._dead + 1
        if dead > queue._live and dead >= queue.COMPACT_MIN:
            queue._compact()

    def fire(self) -> None:
        """Invoke the callback (the engine calls this; not user code)."""
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} prio={self.priority} {name}{state}>"


#: Entry layout (posted entries carry ``None`` in the event slot; they
#: still sort with pushed ones because comparison never reaches index 3).
Entry = tuple  # (time, priority, sequence, Event | None, callback, args)

#: Allocating an Event *shell* and filling its slots inline is markedly
#: cheaper than running ``Event.__init__`` (the ctor call frame costs
#: more than the slot stores); :meth:`EventQueue.push` — the one hot
#: construction site — uses it.
_new_event = Event.__new__


class EventQueue:
    """Timer-wheel priority queue of scheduled callbacks.

    ``len()`` / ``bool()`` are O(1): the queue tracks a live-entry counter
    that :meth:`push`/:meth:`post` increment and :meth:`Event.cancel` /
    the pop paths decrement.

    Layout (see module docstring): ``_front`` is a binary heap of the
    entries whose tick falls before ``_window_end`` — including anything
    scheduled in the past relative to the window, so no separate
    "behind the cursor" case exists; ``_slots[level][index]`` are the
    wheel buckets for ticks at or beyond the window, with one occupancy
    bitmap int per level; ``_overflow`` holds entries beyond the wheel
    horizon.  ``_window_base`` only ever jumps to the start of an occupied
    slot's span, which keeps the invariant that every bucketed entry is at
    or beyond the current window — the cascade scans can therefore always
    take the lowest set bitmap bit.
    """

    #: Compact once at least this many dead entries outnumber the live
    #: ones (i.e. the dead fraction exceeds COMPACT_FRACTION).  Slots
    #: reclaim their dead lazily anyway; the trigger mostly serves the
    #: *front* heap, where a cancel storm inside the current window would
    #: otherwise make every drain pop pay O(log n) for dead weight.
    COMPACT_MIN = 4096
    #: The effective dead-fraction threshold of the ``dead > live``
    #: trigger in :meth:`Event.cancel`.
    COMPACT_FRACTION = 0.5

    __slots__ = (
        "_front", "_slots", "_maps", "_overflow",
        "_window_base", "_window_end", "_window_end_time",
        "_seq", "_live", "_dead",
    )

    def __init__(self) -> None:
        self._front: list[Entry] = []
        self._slots: list[list[list[Entry] | None] | None] = [
            None,
            [None] * _SLOTS,
            [None] * _SLOTS,
            [None] * _SLOTS,
        ]
        self._maps: list[int] = [0] * _LEVELS
        self._overflow: list[Entry] = []
        self._window_base = 0
        self._window_end = _FRONT_SPAN
        # The same boundary in seconds: dividing by a power of two is
        # exact, so `time < _window_end_time` is equivalent to
        # `int(time * TICK_HZ) < _window_end` — without paying for the
        # multiply-and-truncate on every push.
        self._window_end_time = _FRONT_SPAN / TICK_HZ
        self._seq = 0
        self._live = 0
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return the event."""
        sequence = self._seq
        self._seq = sequence + 1
        event = _new_event(Event)
        event.time = time
        event.priority = priority
        event.sequence = sequence
        event.callback = callback
        event.args = args
        event.cancelled = False
        event._queue = self
        entry = (time, priority, sequence, event, callback, args)
        self._live += 1
        if time < self._window_end_time:
            heappush(self._front, entry)
        else:
            self._place_far(entry)
        return event

    def post(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule a fire-and-forget callback with no :class:`Event`.

        The zero-alloc fast path: the entry tuple is the whole event.  Use
        for schedules that are never cancelled (deliveries, one-shot
        bookkeeping); there is no handle to cancel.  Ordering is identical
        to :meth:`push` at the same instant — posts and pushes share one
        sequence counter.
        """
        sequence = self._seq
        self._seq = sequence + 1
        self._live += 1
        entry = (time, priority, sequence, None, callback, args)
        if time < self._window_end_time:
            heappush(self._front, entry)
        else:
            self._place_far(entry)

    def _place_far(self, entry: Entry) -> None:
        """Bucket an entry whose time is at or beyond the current window.

        This is :meth:`_place` with the tick conversion fused in — far
        pushes are one frame instead of two; the split ``_place`` remains
        for :meth:`_scatter`, which already has the tick.
        """
        try:
            tick = int(entry[0] * TICK_HZ)
        except (OverflowError, ValueError):
            # inf (overflow) and nan (value) can't be bucketed.
            self._overflow.append(entry)
            return
        base = self._window_base
        for level, width, span in _LEVEL_GEOMETRY:
            if (tick >> span) == (base >> span):
                index = (tick >> width) & _SLOT_MASK
                slots = self._slots[level]
                slot = slots[index]
                if slot:
                    slot.append(entry)
                elif slot is None:
                    slots[index] = [entry]
                    self._maps[level] |= 1 << index
                else:
                    slot.append(entry)
                    self._maps[level] |= 1 << index
                return
        self._overflow.append(entry)

    def _place(self, tick: int, entry: Entry) -> None:
        """Bucket an at-or-beyond-window ``tick`` into the wheel levels.

        Level ``L`` owns the tick iff the tick shares the window base's
        level-``L+1`` span but not its level-``L`` span — i.e. the lowest
        level whose current slot array covers it.  Within one span the
        slot index of any beyond-window tick is strictly greater than the
        base's own index, so the lowest set bitmap bit is always the next
        span to visit.
        """
        base = self._window_base
        for level, width, span in _LEVEL_GEOMETRY:
            if (tick >> span) == (base >> span):
                index = (tick >> width) & _SLOT_MASK
                slots = self._slots[level]
                slot = slots[index]
                if slot:
                    slot.append(entry)
                elif slot is None:
                    slots[index] = [entry]
                    self._maps[level] |= 1 << index
                else:
                    slot.append(entry)
                    self._maps[level] |= 1 << index
                return
        self._overflow.append(entry)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries from every bucket (memory bound only).

        Ordering keys are immutable, so filtering can never reorder live
        events.  Bitmaps are rebuilt for emptied slots.
        """
        for level in range(1, _LEVELS):
            bitmap = self._maps[level]
            if not bitmap:
                continue
            slots = self._slots[level]
            for index in range(_SLOTS):
                if not (bitmap >> index) & 1:
                    continue
                slot = slots[index]
                kept = [e for e in slot if e[3] is None or not e[3].cancelled]
                dropped = len(slot) - len(kept)
                if dropped:
                    self._dead -= dropped
                    slot[:] = kept
                    if not kept:
                        bitmap &= ~(1 << index)
            self._maps[level] = bitmap
        kept = [
            e for e in self._overflow if e[3] is None or not e[3].cancelled
        ]
        self._dead -= len(self._overflow) - len(kept)
        self._overflow = kept
        kept = [e for e in self._front if e[3] is None or not e[3].cancelled]
        if len(kept) != len(self._front):
            self._dead -= len(self._front) - len(kept)
            self._front[:] = kept
            heapify(self._front)

    # ------------------------------------------------------------------
    # Window advancement
    # ------------------------------------------------------------------
    def _load_front(self, slot: list[Entry]) -> bool:
        """Load a level-1 slot into the empty front heap.

        Cancelled entries die here — once per entry, the O(1)-cancel
        counterpart to a plain heap's compaction.
        """
        kept = [e for e in slot if e[3] is None or not e[3].cancelled]
        self._dead -= len(slot) - len(kept)
        slot.clear()
        front = self._front
        front[:] = kept
        if len(front) > 1:
            heapify(front)
        return bool(front)

    def _scatter(self, entries: list[Entry]) -> None:
        """Re-place a cascaded coarse slot's entries one level down.

        Entries landing inside the (new) current window go straight onto
        the front heap; the caller heapifies once afterwards.
        """
        front = self._front
        window_end = self._window_end
        for entry in entries:
            event = entry[3]
            if event is not None and event.cancelled:
                self._dead -= 1
                continue
            try:
                tick = int(entry[0] * TICK_HZ)
            except (OverflowError, ValueError):
                self._overflow.append(entry)
                continue
            if tick < window_end:
                front.append(entry)
            else:
                self._place(tick, entry)

    def _advance(self) -> bool:
        """Move the window to the next occupied span and load the front.

        Returns ``False`` when no entries remain anywhere.  Scans take the
        lowest set bitmap bit per level (valid because bucketed ticks are
        always at or beyond the window — see class docstring); coarser
        hits cascade via :meth:`_scatter` and the scan restarts.
        """
        maps = self._maps
        front = self._front
        while True:
            bitmap = maps[1]
            if bitmap:
                index = (bitmap & -bitmap).bit_length() - 1
                slots = self._slots[1]
                slot = slots[index]
                maps[1] = bitmap & ~(1 << index)
                base = ((self._window_base >> _L1_SPAN)
                        << _L1_SPAN) + (index << _FRONT_BITS)
                self._window_base = base
                self._window_end = base + _FRONT_SPAN
                self._window_end_time = (base + _FRONT_SPAN) / TICK_HZ
                if slot and self._load_front(slot):
                    return True
                continue
            advanced = False
            for level, width, span in _LEVEL_GEOMETRY[1:]:
                bitmap = maps[level]
                if not bitmap:
                    continue
                index = (bitmap & -bitmap).bit_length() - 1
                slots = self._slots[level]
                slot = slots[index]
                maps[level] = bitmap & ~(1 << index)
                base = ((self._window_base >> span) << span) + (index << width)
                self._window_base = base
                self._window_end = base + _FRONT_SPAN
                self._window_end_time = (base + _FRONT_SPAN) / TICK_HZ
                if slot:
                    # A coarse slot only ever scatters one level down, so
                    # it can be read in place and emptied afterwards.
                    self._scatter(slot)
                    slot.clear()
                    if front:
                        if len(front) > 1:
                            heapify(front)
                        return True
                advanced = True
                break
            if advanced:
                continue
            if self._overflow:
                if self._refill_from_overflow():
                    # The refill may have landed entries straight on the
                    # front heap; they are the earliest (every bucketed
                    # slot holds a strictly later span), so loading a
                    # level-1 slot now would clobber them.
                    if front:
                        return True
                    continue
                return bool(front)
            return False

    def _refill_from_overflow(self) -> bool:
        """Rebase the wheel at the earliest overflow entry.

        Returns True if anything was re-placed (the scan then restarts).
        Non-finite times (``inf``) can never be bucketed; once they are
        all that remains, the earliest goes straight to the front so a
        queue holding only far-infinite events still drains.
        """
        pending = self._overflow
        best: Entry | None = None
        live: list[Entry] = []
        for entry in pending:
            event = entry[3]
            if event is not None and event.cancelled:
                self._dead -= 1
                continue
            live.append(entry)
            if best is None or entry[:3] < best[:3]:
                best = entry
        self._overflow = []
        if best is None:
            return False
        try:
            tick = int(best[0] * TICK_HZ)
        except (OverflowError, ValueError):
            tick = None
        if tick is None:
            # Only non-bucketable times remain in front of the schedule.
            heappush(self._front, best)
            for entry in live:
                if entry is not best:
                    self._overflow.append(entry)
            return True
        base = (tick >> _FRONT_BITS) << _FRONT_BITS
        self._window_base = base
        self._window_end = base + _FRONT_SPAN
        self._window_end_time = (base + _FRONT_SPAN) / TICK_HZ
        self._scatter(live)
        if len(self._front) > 1:
            heapify(self._front)
        return True

    # ------------------------------------------------------------------
    # Popping
    # ------------------------------------------------------------------
    def _fill_front(self) -> bool:
        """Ensure the front heap's min is the earliest live entry.

        Prunes dead entries off the top and advances the window when the
        front empties.  Returns ``False`` when the queue holds no live
        events.
        """
        front = self._front
        while True:
            if front:
                entry = front[0]
                event = entry[3]
                if event is None or not event.cancelled:
                    return True
                heappop(front)
                self._dead -= 1
                continue
            if not self._advance():
                return False

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        event = self.pop_next()
        if event is None:
            raise IndexError("pop from empty EventQueue")
        return event

    def pop_next(self, until: float | None = None) -> Event | None:
        """Pop the earliest live event, or ``None``.

        When ``until`` is given and the earliest live event is strictly
        after it, the event is left queued and ``None`` is returned.
        Entries scheduled through :meth:`post` are materialised into an
        :class:`Event` here — the engine's inlined run loop fires entries
        directly and never pays this cost.
        """
        if not self._fill_front():
            return None
        front = self._front
        entry = front[0]
        if until is not None and entry[0] > until:
            return None
        heappop(front)
        self._live -= 1
        event = entry[3]
        if event is None:
            return Event(entry[0], entry[1], entry[2], entry[4], entry[5])
        event._queue = None
        return event

    def peek_time(self) -> float | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        if not self._fill_front():
            return None
        return self._front[0][0]

    def clear(self) -> None:
        """Drop all pending events.

        Every pending event is *cancel-detached*: flagged ``cancelled``
        and unlinked, so a handle retained across the clear reports the
        truth (the event will never fire) and a late ``cancel()`` stays a
        harmless no-op instead of corrupting the live counter.
        """
        for bucket in self._iter_buckets():
            for entry in bucket:
                event = entry[3]
                if event is not None:
                    event.cancelled = True
                    event._queue = None
        self._front = []
        self._slots = [
            None,
            [None] * _SLOTS,
            [None] * _SLOTS,
            [None] * _SLOTS,
        ]
        self._maps = [0] * _LEVELS
        self._overflow = []
        self._window_base = 0
        self._window_end = _FRONT_SPAN
        self._window_end_time = _FRONT_SPAN / TICK_HZ
        self._live = 0
        self._dead = 0

    def _iter_buckets(self):
        yield self._front
        yield self._overflow
        for level in range(1, _LEVELS):
            bitmap = self._maps[level]
            if not bitmap:
                continue
            slots = self._slots[level]
            index = 0
            while bitmap:
                if bitmap & 1:
                    slot = slots[index]
                    if slot:
                        yield slot
                bitmap >>= 1
                index += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventQueue live={self._live} dead={self._dead} "
            f"window=[{self._window_base},{self._window_end}) "
            f"front={len(self._front)}>"
        )
