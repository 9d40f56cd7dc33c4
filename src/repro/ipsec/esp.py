"""ESP encapsulation (RFC 2406 model, simulation form).

An :class:`EspPacket` carries the SPI, the sequence number, the
(simulated-cipher) ciphertext and a real HMAC-SHA-256 ICV over
``SPI || seq || ciphertext``.  :func:`esp_open` verifies the ICV before
anything else — which is exactly why, under the IETF rekey baseline, a
packet recorded under an old SA generation cannot be replayed into a new
one: its ICV fails under the new keys.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.ipsec.crypto import IntegrityError, encode_seq, xor_stream
from repro.ipsec.sa import SecurityAssociation


class EspPacket(NamedTuple):
    """A sealed ESP packet.

    The sequence number rides outside the ciphertext (as in real ESP) so
    the receiver can run the anti-replay check before decrypting.
    """

    spi: int
    seq: int
    ciphertext: bytes
    icv: bytes
    #: Outer-header source address (NOT covered by the ICV — a NAT
    #: rewrites it in flight; see ``repro.netpath.nat``).
    src: str | None = None
    #: Audit uid (NOT covered by the ICV; see ``repro.core.audit``).
    uid: int | None = None

    def __repr__(self) -> str:
        return f"esp(spi={self.spi:#x}, seq={self.seq})"


def _auth_data(spi: int, encoded_seq: bytes, ciphertext: bytes) -> bytes:
    return spi.to_bytes(8, "big") + encoded_seq + ciphertext


def esp_seal(
    sa: SecurityAssociation,
    seq: int,
    payload: bytes,
    src: str | None = None,
    uid: int | None = None,
) -> EspPacket:
    """Encrypt and authenticate ``payload`` as sequence number ``seq``.

    ``src`` and ``uid`` ride outside the ICV: integrity holds regardless
    of the address a NAT stamped on the packet.
    """
    encoded_seq = encode_seq(seq)
    ciphertext = xor_stream(sa.enc_key, payload, nonce=encoded_seq)
    icv = sa.mac.digest(_auth_data(sa.spi, encoded_seq, ciphertext))
    return EspPacket(sa.spi, seq, ciphertext, icv, src, uid)


def esp_open(sa: SecurityAssociation, packet: EspPacket) -> bytes:
    """Verify and decrypt; raises :class:`IntegrityError` on any mismatch.

    SPI mismatch is an integrity failure too: a packet for another SA must
    never decrypt under this one.
    """
    if packet.spi != sa.spi:
        raise IntegrityError(
            f"SPI mismatch: packet {packet.spi:#x} vs SA {sa.spi:#x}"
        )
    encoded_seq = encode_seq(packet.seq)
    if not sa.mac.verify(
        _auth_data(packet.spi, encoded_seq, packet.ciphertext), packet.icv
    ):
        raise IntegrityError(f"bad ICV on {packet!r} (wrong or rekeyed SA)")
    return xor_stream(sa.enc_key, packet.ciphertext, nonce=encoded_seq)
