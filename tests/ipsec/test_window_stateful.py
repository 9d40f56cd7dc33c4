"""Stateful property test: the bitmap window against two oracles, under
arbitrary interleavings of updates and resumes.

* :class:`ReferenceWindow` keeps an explicit set of delivered sequence
  numbers and the right edge: the window's verdicts must be identical.
* :class:`spec_window.SpecWindow` runs the model-checked spec's own
  ``window_update`` and wake: the window must accept the same messages,
  and its ``snapshot()`` must equal the spec's ``(r, wdw)``.

``check`` and ``update`` classify in separate code, so before every
update the verdict ``check`` gives must be the one ``update`` returns.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st
from spec_window import SpecWindow

from repro.ipsec.replay_window import BitmapReplayWindow, Verdict

W = 32


class ReferenceWindow:
    """The obviously-correct (and obviously-slow) specification."""

    def __init__(self, w: int) -> None:
        self.w = w
        self.r = 0
        self.seen: set[int] = set()
        self.floor = 0  # everything <= floor counts as seen

    def update(self, seq: int) -> Verdict:
        if seq <= self.r - self.w:
            return Verdict.STALE
        if seq <= self.floor or seq in self.seen:
            return Verdict.DUPLICATE
        if seq <= self.r:
            self.seen.add(seq)
            return Verdict.ACCEPT_IN_WINDOW
        self.seen.add(seq)
        self.r = seq
        self.seen = {s for s in self.seen if s > self.r - self.w}
        return Verdict.ACCEPT_ADVANCE

    def resume(self, new_right_edge: int) -> None:
        self.r = new_right_edge
        self.floor = new_right_edge
        self.seen = set()


class WindowEquivalence(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.reference = ReferenceWindow(W)
        self.spec = SpecWindow(W)
        self.window = BitmapReplayWindow(W)
        self.base = 0  # drifting offset so sequences grow over time

    @rule(offset=st.integers(min_value=-40, max_value=50))
    def offer(self, offset):
        seq = max(-5, self.base + offset)
        self.base = max(self.base, seq)
        expected = self.reference.update(seq)
        checked = self.window.check(seq)
        verdict = self.window.update(seq)
        assert checked is verdict, f"check and update disagree on seq {seq}"
        assert verdict == expected, f"diverged from the reference on seq {seq}"
        assert self.spec.update(seq) == verdict.accepted, (
            f"diverged from the spec on seq {seq}"
        )

    @rule(leap=st.integers(min_value=0, max_value=100))
    def resume(self, leap):
        target = self.reference.r + leap
        self.base = max(self.base, target)
        self.reference.resume(target)
        self.spec.resume(target)
        self.window.resume(target)

    @invariant()
    def states_agree(self):
        if not hasattr(self, "reference"):
            return
        assert self.window.right_edge == self.reference.r == self.spec.r
        assert self.window.snapshot() == (self.spec.r, self.spec.wdw)


TestWindowEquivalence = WindowEquivalence.TestCase
TestWindowEquivalence.settings = settings(
    max_examples=60, stateful_step_count=80, deadline=None
)
