"""Tests for repro.net.message."""

from repro.net.message import Message


class TestMessage:
    def test_repr_matches_paper_notation(self):
        assert repr(Message(seq=7)) == "msg(7)"

    def test_frozen(self):
        message = Message(seq=1)
        try:
            message.seq = 2  # type: ignore[misc]
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_slotted(self):
        assert not hasattr(Message(seq=1), "__dict__")

    def test_uid_defaults_to_none(self):
        assert Message(seq=1).uid is None

    def test_equality_by_content(self):
        assert Message(seq=1, sent_at=0.5) == Message(seq=1, sent_at=0.5)
        assert Message(seq=1) != Message(seq=2)

    def test_hashable(self):
        assert len({Message(seq=1), Message(seq=1), Message(seq=2)}) == 2
