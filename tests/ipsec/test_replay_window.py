"""Tests for the anti-replay window — the paper's central data structure.

Includes hypothesis property tests establishing (a) equivalence of the
bitmap window and the spec's paper-literal ``window_update`` (through
:class:`spec_window.SpecWindow`), and (b) the Discrimination invariant
(no sequence number accepted twice).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spec_window import SpecWindow

from repro.ipsec.replay_window import BitmapReplayWindow, Verdict


@pytest.fixture(params=[BitmapReplayWindow], ids=["bitmap"])
def window_cls(request):
    return request.param


class TestVerdict:
    def test_accepted_members(self):
        assert [v for v in Verdict if v.accepted] == [
            Verdict.ACCEPT_ADVANCE, Verdict.ACCEPT_IN_WINDOW
        ]

    def test_index_is_definition_order(self):
        assert [v.index for v in Verdict] == [0, 1, 2, 3]

    def test_hashed_by_name_not_identity(self):
        """Identity hashing would make set order differ between processes."""
        assert all(hash(v) == hash(v.name) for v in Verdict)


class TestInitialState:
    def test_right_edge_zero(self, window_cls):
        assert window_cls(8).right_edge == 0

    def test_nonpositive_seq_rejected_initially(self, window_cls):
        """Paper: window starts all-true, so seq <= 0 is never delivered."""
        window = window_cls(4)
        assert window.update(0) is Verdict.DUPLICATE
        assert window.update(-1) is Verdict.DUPLICATE
        assert window.update(-100) is Verdict.STALE

    def test_rejects_bad_w(self, window_cls):
        with pytest.raises(ValueError):
            window_cls(0)
        # Not truncated: 0.5 would be a zero-width window, True w=1.
        for bad in (0.5, 64.7, True):
            with pytest.raises(TypeError, match="w must be int"):
                window_cls(bad)


class TestThreeCases:
    """The paper's three receive cases, directly."""

    def test_case_advance(self, window_cls):
        window = window_cls(4)
        assert window.update(1) is Verdict.ACCEPT_ADVANCE
        assert window.right_edge == 1

    def test_case_in_window_fresh_then_duplicate(self, window_cls):
        window = window_cls(4)
        window.update(5)  # r = 5, window covers 2..5
        assert window.update(3) is Verdict.ACCEPT_IN_WINDOW
        assert window.update(3) is Verdict.DUPLICATE

    def test_case_stale(self, window_cls):
        window = window_cls(4)
        window.update(10)  # window covers 7..10
        assert window.update(6) is Verdict.STALE
        assert window.update(7) is Verdict.ACCEPT_IN_WINDOW

    def test_right_edge_duplicate_rejected_after_slide(self, window_cls):
        """The slide must mark the arriving seq received (the off-by-one
        in the paper's literal APN code; see module docstring)."""
        window = window_cls(4)
        assert window.update(9) is Verdict.ACCEPT_ADVANCE
        assert window.update(9) is Verdict.DUPLICATE

    def test_slide_preserves_received_flags(self, window_cls):
        window = window_cls(4)
        window.update(4)  # covers 1..4; received {4}
        window.update(2)  # received {2, 4}
        window.update(6)  # slide by 2; covers 3..6
        assert window.update(4) is Verdict.DUPLICATE
        assert window.update(3) is Verdict.ACCEPT_IN_WINDOW
        assert window.update(5) is Verdict.ACCEPT_IN_WINDOW

    def test_slide_beyond_window_clears(self, window_cls):
        window = window_cls(4)
        window.update(3)
        window.update(100)  # far jump
        assert window.right_edge == 100
        assert window.update(97) is Verdict.ACCEPT_IN_WINDOW
        assert window.update(96) is Verdict.STALE


class TestCheckVsUpdate:
    def test_check_does_not_mutate(self, window_cls):
        window = window_cls(4)
        window.update(5)
        before = window.snapshot()
        assert window.check(4) is Verdict.ACCEPT_IN_WINDOW
        assert window.snapshot() == before


class TestResume:
    def test_resume_marks_everything_seen(self, window_cls):
        """Section 4 wake-up: every seq up to r assumed received."""
        window = window_cls(4)
        window.resume(50)
        assert window.right_edge == 50
        for seq in range(40, 51):
            assert not window.update(seq).accepted
        assert window.update(51) is Verdict.ACCEPT_ADVANCE


class TestEquivalence:
    """The bitmap window is the spec's ``window_update``, step for step."""

    @given(
        w=st.integers(min_value=1, max_value=40),
        seqs=st.lists(st.integers(min_value=-5, max_value=120), max_size=200),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_verdicts_and_state(self, w, seqs):
        spec = SpecWindow(w)
        window = BitmapReplayWindow(w)
        for seq in seqs:
            accepted = spec.update(seq)
            assert window.update(seq).accepted == accepted, f"diverged on seq {seq}"
            assert window.snapshot() == (spec.r, spec.wdw)

    @given(
        w=st.integers(min_value=1, max_value=24),
        resume_at=st.integers(min_value=0, max_value=100),
        seqs=st.lists(st.integers(min_value=-5, max_value=200), max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_equivalence_survives_resume(self, w, resume_at, seqs):
        spec = SpecWindow(w)
        window = BitmapReplayWindow(w)
        spec.resume(resume_at)
        window.resume(resume_at)
        for seq in seqs:
            assert window.update(seq).accepted == spec.update(seq)
            assert window.snapshot() == (spec.r, spec.wdw)


class TestDiscriminationProperty:
    """No sequence number is ever accepted twice (paper: Discrimination)."""

    @given(
        w=st.integers(min_value=1, max_value=32),
        seqs=st.lists(st.integers(min_value=1, max_value=150), max_size=300),
    )
    @settings(max_examples=300, deadline=None)
    def test_no_double_accept(self, w, seqs):
        window = BitmapReplayWindow(w)
        accepted: set[int] = set()
        for seq in seqs:
            if window.update(seq).accepted:
                assert seq not in accepted, f"seq {seq} accepted twice"
                accepted.add(seq)

    @given(
        w=st.integers(min_value=2, max_value=64),
        count=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_in_order_stream_fully_accepted(self, w, count):
        """w-Delivery on a perfect channel: everything delivered."""
        window = BitmapReplayWindow(w)
        for seq in range(1, count + 1):
            assert window.update(seq).accepted

    @given(
        w=st.integers(min_value=1, max_value=32),
        seqs=st.lists(st.integers(min_value=1, max_value=100), max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_right_edge_monotone(self, w, seqs):
        window = BitmapReplayWindow(w)
        previous = window.right_edge
        for seq in seqs:
            window.update(seq)
            assert window.right_edge >= previous
            previous = window.right_edge
