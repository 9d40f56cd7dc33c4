"""Tests for repro.ipsec.crypto."""

import hashlib
import hmac

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ipsec.ah import ah_seal
from repro.ipsec.crypto import (
    KEY_LENGTH,
    MacKey,
    derive_key,
    encode_seq,
    generate_key,
    hmac_digest,
    hmac_verify,
    xor_stream,
)
from repro.ipsec.esp import esp_seal
from repro.ipsec.sa import make_sa


def flip_bit(data: bytes, bit: int) -> bytes:
    """``data`` with bit ``bit`` (mod its length in bits) inverted."""
    bit %= len(data) * 8
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


class TestKeys:
    def test_generate_key_length(self):
        assert len(generate_key(1)) == KEY_LENGTH

    def test_generate_key_deterministic(self):
        assert generate_key(7) == generate_key(7)

    def test_distinct_seeds_distinct_keys(self):
        assert generate_key(1) != generate_key(2)

    def test_derive_key_labelled(self):
        master = generate_key(0)
        assert derive_key(master, "auth") != derive_key(master, "enc")
        assert derive_key(master, "auth") == derive_key(master, "auth")


class TestHmac:
    def test_verify_roundtrip(self):
        key = generate_key(0)
        icv = hmac_digest(key, b"hello")
        assert hmac_verify(key, b"hello", icv)

    def test_wrong_data_fails(self):
        key = generate_key(0)
        icv = hmac_digest(key, b"hello")
        assert not hmac_verify(key, b"hellp", icv)

    def test_wrong_key_fails(self):
        icv = hmac_digest(generate_key(0), b"hello")
        assert not hmac_verify(generate_key(1), b"hello", icv)

    def test_tampered_icv_fails(self):
        key = generate_key(0)
        icv = bytearray(hmac_digest(key, b"hello"))
        icv[0] ^= 1
        assert not hmac_verify(key, b"hello", bytes(icv))


class TestMacKey:
    """``MacKey`` against the stdlib ``hmac`` module as the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        key=st.binary(max_size=200),
        data=st.binary(max_size=300),
        bit=st.integers(min_value=0, max_value=2**16),
    )
    @example(key=b"", data=b"", bit=0)
    @example(key=bytes(range(64)), data=b"x", bit=255)
    @example(key=bytes(range(65)), data=b"xy", bit=7)
    @example(key=bytes(200), data=bytes(300), bit=2**16)
    def test_matches_stdlib_hmac(self, key, data, bit):
        mac = MacKey(key)
        icv = mac.digest(data)
        assert icv == hmac.new(key, data, hashlib.sha256).digest()
        assert hmac_digest(key, data) == icv
        assert mac.verify(data, icv)
        assert hmac_verify(key, data, icv)
        assert not mac.verify(data, flip_bit(icv, bit))
        assert not hmac_verify(key, data, flip_bit(icv, bit))
        if data:
            assert not mac.verify(flip_bit(data, bit), icv)
            assert not hmac_verify(key, flip_bit(data, bit), icv)

    def test_rejects_truncated_icv(self):
        mac = MacKey(generate_key(0))
        assert not mac.verify(b"hello", mac.digest(b"hello")[:16])


class TestPinnedBytes:
    """Wire bytes pinned to literals.  Seal and open share one MAC, so a
    wrong MAC would still round-trip, and no simulation result depends
    on a ciphertext or ICV byte."""

    def test_xor_stream(self):
        data = bytes(range(256)) * 4
        stream = hashlib.sha256()
        for n in (0, 1, 31, 32, 33, 64, 65, 256, 1000):
            stream.update(xor_stream(generate_key(0), data[:n], nonce=encode_seq(n)))
        assert stream.hexdigest() == (
            "0764c9418c3fda484a3a79327a2f73d438f9f4984e6db590a3e6c9f597bcabc5"
        )

    def test_esp_and_ah(self):
        sa = make_sa("p", "q", seed_or_rng=1, spi=0x1234)
        wire = hashlib.sha256()
        for seq in (1, 2, 255, 256, 2**32, 2**64 + 3):
            for payload in (b"", b"x", bytes(range(100))):
                esp = esp_seal(sa, seq, payload)
                ah = ah_seal(sa, seq, payload)
                wire.update(esp.ciphertext + esp.icv + ah.icv)
        assert wire.hexdigest() == (
            "af79b6ce619a619d3ba1d5c55dceafb88751c8752d12316e3b5f75138e906bb9"
        )

    def test_derive_key(self):
        assert derive_key(generate_key(0), "auth:p->q:0").hex() == (
            "b7e54606f4083cd2c0bbea137d42228e1a4116498fe79cfddbb1e7e69380aeb7"
        )


class TestXorStream:
    def test_roundtrip(self):
        key = generate_key(0)
        data = b"the quick brown fox" * 10
        assert xor_stream(key, xor_stream(key, data)) == data

    def test_nonce_separates_streams(self):
        key = generate_key(0)
        assert xor_stream(key, b"aaaa", nonce=b"1") != xor_stream(
            key, b"aaaa", nonce=b"2"
        )

    def test_key_separates_streams(self):
        assert xor_stream(generate_key(0), b"aaaa") != xor_stream(
            generate_key(1), b"aaaa"
        )

    def test_empty_payload(self):
        assert xor_stream(generate_key(0), b"") == b""


class TestEncodeSeq:
    def test_distinct_values_distinct_encodings(self):
        seen = {encode_seq(n) for n in range(0, 5000, 7)}
        assert len(seen) == len(range(0, 5000, 7))

    def test_unbounded_values(self):
        big = 2**300
        assert encode_seq(big) != encode_seq(big + 1)

    def test_no_prefix_collision(self):
        # Length prefix prevents 1||2 colliding with 12 etc.
        assert encode_seq(0x0102) != encode_seq(0x01) + encode_seq(0x02)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_seq(-1)

    @given(st.integers(min_value=0, max_value=2**200))
    @example(0)
    @example(255)
    @example(256)
    @example(2**200)
    def test_one_call_form_matches_the_two_step_encoding(self, seq):
        """The length and the body come out of one ``to_bytes`` call."""
        body = seq.to_bytes((seq.bit_length() + 7) // 8 or 1, "big")
        assert encode_seq(seq) == len(body).to_bytes(4, "big") + body
