"""Cryptographic primitives for the simulated IPsec stack.

Integrity is real: ICVs are HMAC-SHA-256 from :class:`MacKey` (RFC 2104
over :func:`hashlib.sha256`, keyed once per SA).  This matters because
the IETF-rekey baseline's correctness argument — "all old messages cannot
pass integrity check under the new SA" — is *enforced* here rather than
assumed.  The stdlib :mod:`hmac` supplies the constant-time compare and
is the tests' oracle for :class:`MacKey`.

Confidentiality is a stand-in: :func:`xor_stream` is a deterministic
keystream XOR built from SHA-256.  It exercises the encrypt/decrypt code
path and key separation, but is **not cryptographically secure** and is
labelled as such; the anti-replay results do not depend on encryption
strength.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random

from repro.util.rng import make_rng

#: Byte length of generated keys.
KEY_LENGTH = 32
#: Byte length of the HMAC-SHA-256 ICV carried in packets.
ICV_LENGTH = 32


class IntegrityError(Exception):
    """Raised when a packet's ICV does not verify under the SA's key."""


#: SHA-256's input block size, the width HMAC pads its key to.
_BLOCK_SIZE = 64
#: RFC 2104's pad bytes, as translation tables over the padded key.
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class MacKey:
    """HMAC-SHA-256 (RFC 2104) under one key, its key schedule run once.

    HMAC is ``H((K ^ opad) || H((K ^ ipad) || data))``.  Both padded-key
    blocks are hashed here, at construction; each message then copies the
    two ``hashlib.sha256`` states and feeds only its own bytes.  A key
    longer than the block is hashed first, as RFC 2104 requires.  An SA
    builds one per authentication key (``SecurityAssociation.mac``).
    Hash states do not pickle, so a ``MacKey`` pickles as its key.
    """

    __slots__ = ("_key", "_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        self._key = key
        if len(key) > _BLOCK_SIZE:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK_SIZE, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def digest(self, data: bytes) -> bytes:
        """The HMAC-SHA-256 ICV of ``data``."""
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, data: bytes, icv: bytes) -> bool:
        """Constant-time check that ``icv`` is the ICV of ``data``."""
        return _hmac.compare_digest(self.digest(data), icv)

    def __reduce__(self) -> tuple[type[MacKey], tuple[bytes]]:
        return MacKey, (self._key,)


def generate_key(seed_or_rng: int | random.Random | None = None) -> bytes:
    """Generate a ``KEY_LENGTH``-byte key from a seeded generator.

    Simulation keys are *reproducible by design* (seeded), which a real
    system must never do; determinism is what lets tests assert on
    specific packet bytes.
    """
    rng = make_rng(seed_or_rng)
    return bytes(rng.getrandbits(8) for _ in range(KEY_LENGTH))


def derive_key(master: bytes, label: str) -> bytes:
    """Derive a labelled subkey from ``master`` (HKDF-like, one step)."""
    return MacKey(master).digest(label.encode("utf-8"))


def hmac_digest(key: bytes, data: bytes) -> bytes:
    """Compute the HMAC-SHA-256 ICV of ``data`` under ``key``."""
    return MacKey(key).digest(data)


def hmac_verify(key: bytes, data: bytes, icv: bytes) -> bool:
    """Constant-time verification of an ICV."""
    return MacKey(key).verify(data, icv)


def xor_stream(key: bytes, data: bytes, nonce: bytes = b"") -> bytes:
    """XOR ``data`` with a SHA-256-derived keystream (NOT secure crypto).

    Keystream block ``i`` is ``SHA-256(key || nonce || i)``, ``i`` as
    8 big-endian bytes; the stream is cut to ``len(data)``.  The same
    call decrypts what it encrypted.  Used only so that the ESP code path
    round-trips payload bytes through a key-dependent transform.  An
    empty payload (the protocol endpoints' default) returns at once.
    """
    if not data:
        return b""
    size = len(data)
    stream = b""
    counter = 0
    while len(stream) < size:
        stream += hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest()
        counter += 1
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream[:size], "big")
    return mixed.to_bytes(size, "big")


def encode_seq(seq: int) -> bytes:
    """Encode an unbounded non-negative sequence number for MACing.

    Length-prefixed big-endian so that distinct integers never collide as
    byte strings (the paper's model uses unbounded sequence numbers): a
    4-byte body length, then the ``size``-byte body.  Both parts come out
    of one ``to_bytes`` call, the length shifted above the body.
    """
    if seq < 0:
        raise ValueError(f"sequence numbers are non-negative, got {seq}")
    size = (seq.bit_length() + 7) // 8 or 1
    return (size << 8 * size | seq).to_bytes(4 + size, "big")
