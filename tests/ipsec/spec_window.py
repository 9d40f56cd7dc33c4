"""The spec's window as a stateful object: the paper-literal test oracle.

:func:`repro.apn.specs.window_update` is the Section 2 receive action of
the model-checked spec, on an immutable ``(r, wdw)`` pair.
:class:`SpecWindow` holds that pair, so a test can drive it beside
:class:`~repro.ipsec.replay_window.BitmapReplayWindow` and compare the
window's ``snapshot()`` with ``(r, wdw)`` after every step.
"""

from repro.apn.specs import window_update


class SpecWindow:
    """``(r, wdw)`` of process ``q``, advanced by the spec's own action."""

    def __init__(self, w: int) -> None:
        self.w = w
        self.r = 0
        self.wdw = (True,) * w  # the paper's initial value: all true

    def update(self, seq: int) -> bool:
        """Receive ``msg(seq)``; return whether it is delivered."""
        accepted, self.r, self.wdw = window_update(self.r, self.wdw, seq, self.w)
        return accepted

    def resume(self, new_right_edge: int) -> None:
        """The wake of the spec's ``q_wake_apply``: ``r`` leaps, ``wdw``
        is flooded to all true."""
        self.r = new_right_edge
        self.wdw = (True,) * self.w
