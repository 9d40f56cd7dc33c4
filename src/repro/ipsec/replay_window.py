"""The anti-replay window of Section 2 — the paper's central data structure.

The receiver ``q`` maintains a window of ``w`` consecutive sequence
numbers.  ``r`` is the *right edge*: the largest sequence number in the
window.  For each in-window sequence number the receiver remembers whether
it has already been received.  On receiving ``msg(s)`` there are three
cases (quoting the paper):

1. ``s <= r - w`` — *stale*: "q cannot determine whether it has received
   this message before, and to be on the safe side ... discards it".
2. ``r - w < s <= r`` — *in window*: deliver iff not already marked
   received (then mark it).
3. ``r < s`` — *advance*: deliver, slide the window so ``s`` becomes the
   new right edge.

There is one implementation, :class:`BitmapReplayWindow`: an RFC
2401-style integer bitmap, the form a production implementation would
use.  The paper-literal form, a boolean array ``wdw[1..w]`` where
``wdw[i]`` holds the status of ``s = r - w + i``, is the spec's own
:func:`repro.apn.specs.window_update`; the tests check this window
against it step by step, resumes included, through :meth:`snapshot`.

Initial state follows the paper: ``r = 0`` and the whole window marked
*received*, so no sequence number ``<= 0`` is ever deliverable.

.. note::
   The paper's APN slide code shifts and zero-fills but never explicitly
   marks the just-received ``s`` (position ``w``) as received; taken
   literally, an immediate duplicate of ``s`` could be accepted, violating
   Discrimination.  This window marks ``s`` received after a slide — the
   clearly intended semantics (and what RFC 2401 prescribes), which
   ``window_update`` follows as well.  This is the one deviation from the
   paper's literal text; it is also exercised by
   ``tests/ipsec/test_replay_window.py``.
"""

from __future__ import annotations

import enum

from repro.util.validation import check_positive_int


class Verdict(enum.Enum):
    """Outcome of offering a sequence number to the window."""

    #: ``s > r``: fresh, window slid forward.
    ACCEPT_ADVANCE = "accept_advance"
    #: in-window and not seen before: fresh, delivered.
    ACCEPT_IN_WINDOW = "accept_in_window"
    #: in-window but already marked received: replay/duplicate, discarded.
    DUPLICATE = "duplicate"
    #: at or below the left edge: too old to judge, discarded.
    STALE = "stale"

    #: Whether the message is delivered to the application.  Both are
    #: plain attributes, set once below: no property call, no hashing.
    accepted: bool
    #: Position in definition order; receivers count verdicts by it.
    index: int


for _index, _verdict in enumerate(Verdict):
    _verdict.index = _index
    _verdict.accepted = _verdict in (Verdict.ACCEPT_ADVANCE, Verdict.ACCEPT_IN_WINDOW)
del _index, _verdict

# The window returns its verdicts through module names: a global read
# costs a fraction of an Enum class-attribute read, once per message.
_ACCEPT_ADVANCE = Verdict.ACCEPT_ADVANCE
_ACCEPT_IN_WINDOW = Verdict.ACCEPT_IN_WINDOW
_DUPLICATE = Verdict.DUPLICATE
_STALE = Verdict.STALE


class BitmapReplayWindow:
    """RFC 2401-style integer-bitmap window (production form).

    Bit ``k`` of ``self._mask`` (for ``0 <= k < w``) holds the received
    flag of sequence number ``r - k``; bit 0 is the right edge.

    Attributes:
        right_edge: ``r``, the largest sequence number the window covers.
            A plain attribute that :meth:`update` and :meth:`resume`
            assign; read it, do not set it.

    Raises:
        TypeError: ``w`` is not an ``int`` (``bool`` included).
        ValueError: ``w <= 0``.
    """

    def __init__(self, w: int) -> None:
        self.w = check_positive_int("w", w)
        self.right_edge = 0
        self._mask = (1 << w) - 1  # all seen, matching the paper init

    def check(self, seq: int) -> Verdict:
        """Classify ``seq`` without mutating the window."""
        r = self.right_edge
        if seq <= r - self.w:
            return _STALE
        if seq <= r:
            if self._mask & (1 << (r - seq)):
                return _DUPLICATE
            return _ACCEPT_IN_WINDOW
        return _ACCEPT_ADVANCE

    def update(self, seq: int) -> Verdict:
        """Classify ``seq`` and record its receipt if accepted.

        Classifies as :meth:`check` does, in its own frame: this is the
        one window call a received message makes.
        """
        r = self.right_edge
        if seq > r:
            w = self.w
            shift = seq - r
            if shift >= w:
                self._mask = 1  # only s itself is received
            else:
                self._mask = ((self._mask << shift) & ((1 << w) - 1)) | 1
            self.right_edge = seq
            return _ACCEPT_ADVANCE
        if seq <= r - self.w:
            return _STALE
        bit = 1 << (r - seq)
        if self._mask & bit:
            return _DUPLICATE
        self._mask |= bit
        return _ACCEPT_IN_WINDOW

    def resume(self, new_right_edge: int) -> None:
        """Post-reset wake-up: jump to ``new_right_edge``, all marked seen.

        This is the receiver's third action in Section 4: after FETCH and
        the leap, "every sequence number up to r should be assumed to be
        already received", so the whole window is set to *received*.
        """
        self.right_edge = new_right_edge
        self._mask = (1 << self.w) - 1

    def snapshot(self) -> tuple[int, tuple[bool, ...]]:
        """Return ``(r, wdw)`` in the paper's form.

        ``wdw[i - 1]`` is the received flag of ``r - w + i`` for ``i`` in
        ``1..w``: the ``(r, wdw)`` pair of the spec's ``window_update``.
        """
        flags = tuple(
            bool(self._mask & (1 << (self.w - 1 - i))) for i in range(self.w)
        )
        return self.right_edge, flags

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BitmapReplayWindow w={self.w} r={self.right_edge}>"
