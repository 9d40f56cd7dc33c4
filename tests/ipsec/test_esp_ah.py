"""Tests for ESP/AH encapsulation with enforced integrity."""

import pytest

from repro.ipsec.ah import ah_open, ah_seal
from repro.ipsec.crypto import IntegrityError
from repro.ipsec.esp import esp_open, esp_seal
from repro.ipsec.sa import make_sa, make_sa_pair


@pytest.fixture
def sa():
    return make_sa("p", "q", seed_or_rng=1)


class TestEsp:
    def test_roundtrip(self, sa):
        packet = esp_seal(sa, 7, b"payload")
        assert packet.seq == 7
        assert esp_open(sa, packet) == b"payload"

    def test_payload_is_encrypted(self, sa):
        packet = esp_seal(sa, 7, b"payload")
        assert b"payload" not in packet.ciphertext

    def test_wrong_sa_fails_integrity(self, sa):
        other = make_sa("p", "q", seed_or_rng=2, spi=sa.spi)  # other keys
        packet = esp_seal(sa, 1, b"x")
        with pytest.raises(IntegrityError, match="bad ICV"):
            esp_open(other, packet)

    def test_spi_mismatch_fails(self, sa):
        other = make_sa("p", "q", seed_or_rng=3)
        packet = esp_seal(sa, 1, b"x")
        with pytest.raises(IntegrityError, match="SPI mismatch"):
            esp_open(other, packet)

    def test_tampered_seq_fails(self, sa):
        from repro.ipsec.esp import EspPacket

        packet = esp_seal(sa, 1, b"x")
        forged = EspPacket(
            spi=packet.spi, seq=2, ciphertext=packet.ciphertext, icv=packet.icv
        )
        with pytest.raises(IntegrityError):
            esp_open(sa, forged)

    def test_tampered_ciphertext_fails(self, sa):
        from repro.ipsec.esp import EspPacket

        packet = esp_seal(sa, 1, b"xy")
        body = bytearray(packet.ciphertext)
        body[0] ^= 0xFF
        forged = EspPacket(
            spi=packet.spi, seq=1, ciphertext=bytes(body), icv=packet.icv
        )
        with pytest.raises(IntegrityError):
            esp_open(sa, forged)

    def test_rekeyed_generation_rejects_old_packets(self):
        """The property the IETF remedy relies on."""
        old_pair = make_sa_pair("p", "q", seed_or_rng=1, generation=0)
        new_pair = make_sa_pair("p", "q", seed_or_rng=2, generation=1)
        old_packet = esp_seal(old_pair.forward, 5, b"recorded")
        with pytest.raises(IntegrityError):
            esp_open(new_pair.forward, old_packet)

    def test_unbounded_seq(self, sa):
        packet = esp_seal(sa, 2**64 + 3, b"big")
        assert esp_open(sa, packet) == b"big"


class TestAh:
    def test_roundtrip_cleartext(self, sa):
        packet = ah_seal(sa, 9, b"visible")
        assert packet.payload == b"visible"  # AH does not encrypt
        assert ah_open(sa, packet) == b"visible"

    def test_tampered_payload_fails(self, sa):
        from repro.ipsec.ah import AhPacket

        packet = ah_seal(sa, 1, b"data")
        forged = AhPacket(
            spi=packet.spi, seq=1, payload=b"datb", icv=packet.icv
        )
        with pytest.raises(IntegrityError):
            ah_open(sa, forged)

    def test_wrong_sa_fails_integrity(self, sa):
        other = make_sa("p", "q", seed_or_rng=2, spi=sa.spi)  # other keys
        packet = ah_seal(sa, 1, b"x")
        with pytest.raises(IntegrityError, match="bad ICV"):
            ah_open(other, packet)

    def test_spi_mismatch_fails(self, sa):
        other = make_sa("p", "q", seed_or_rng=5)
        packet = ah_seal(sa, 1, b"x")
        with pytest.raises(IntegrityError, match="SPI mismatch"):
            ah_open(other, packet)

    def test_esp_and_ah_icvs_domain_separated(self, sa):
        esp_packet = esp_seal(sa, 1, b"")
        ah_packet = ah_seal(sa, 1, b"")
        assert esp_packet.icv != ah_packet.icv
