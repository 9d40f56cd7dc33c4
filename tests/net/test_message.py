"""Tests for repro.net.message and the packet types beside it."""

import pytest

from repro.core.encap import ENCAP_MODES, seal
from repro.ipsec.sa import make_sa
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


#: Field names, in order, of each encapsulation's packet type.
FIELDS = {
    "plain": ("seq", "payload", "sent_at", "src", "uid"),
    "esp": ("spi", "seq", "ciphertext", "icv", "src", "uid"),
    "ah": ("spi", "seq", "payload", "icv", "src", "uid"),
}

SA = make_sa("p", "q", seed_or_rng=1)


def sealed(encap: str):
    return seal(encap, SA, 7, b"x", 0.5, 42, "nat:a")


@pytest.mark.parametrize("encap", ENCAP_MODES)
class TestPacketTypes:
    """``Message``, ``EspPacket`` and ``AhPacket`` are immutable named tuples."""

    def test_field_order(self, encap):
        assert sealed(encap)._fields == FIELDS[encap]

    def test_fields_cannot_be_assigned(self, encap):
        packet = sealed(encap)
        for name in packet._fields:
            with pytest.raises(AttributeError):
                setattr(packet, name, None)
        with pytest.raises(AttributeError):
            packet.extra = 1  # type: ignore[attr-defined]

    def test_no_instance_dict(self, encap):
        assert not hasattr(sealed(encap), "__dict__")

    def test_hash_is_the_field_tuple_hash(self, encap):
        packet = sealed(encap)
        fields = tuple(getattr(packet, name) for name in packet._fields)
        assert hash(packet) == hash(fields)

    def test_replace_keeps_the_uid(self, encap):
        packet = sealed(encap)
        moved = packet._replace(src="nat:evil")
        assert type(moved) is type(packet)
        assert (moved.src, moved.uid) == ("nat:evil", 42)
        assert moved._replace(src="nat:a") == packet


def test_sealed_esp_and_ah_packets_never_compare_equal():
    """Tuple equality ignores the type, but AH's ICV covers an ``AH`` prefix."""
    assert seal("esp", SA, 1, b"", 0.0, None) != seal("ah", SA, 1, b"", 0.0, None)
