"""AH encapsulation (RFC 2402 model, simulation form).

AH provides integrity without confidentiality: the payload travels in the
clear, covered (together with SPI and sequence number) by the ICV.  The
anti-replay experiments run identically over AH and ESP; AH exists so the
substrate matches the standard's two protection protocols and so tests can
confirm the replay logic is agnostic to which encapsulation is in use.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.ipsec.crypto import IntegrityError, encode_seq
from repro.ipsec.sa import SecurityAssociation


class AhPacket(NamedTuple):
    """An authenticated (cleartext) AH packet."""

    spi: int
    seq: int
    payload: bytes
    icv: bytes
    #: Outer-header source address (NOT covered by the ICV — a NAT
    #: rewrites it in flight; see ``repro.netpath.nat``).
    src: str | None = None
    #: Audit uid (NOT covered by the ICV; see ``repro.core.audit``).
    uid: int | None = None

    def __repr__(self) -> str:
        return f"ah(spi={self.spi:#x}, seq={self.seq})"


def _auth_data(spi: int, seq: int, payload: bytes) -> bytes:
    return b"AH" + spi.to_bytes(8, "big") + encode_seq(seq) + payload


def ah_seal(
    sa: SecurityAssociation,
    seq: int,
    payload: bytes,
    src: str | None = None,
    uid: int | None = None,
) -> AhPacket:
    """Authenticate ``payload`` as sequence number ``seq``.

    ``src`` and ``uid`` ride outside the ICV: integrity holds regardless
    of the address a NAT stamped on the packet.
    """
    icv = sa.mac.digest(_auth_data(sa.spi, seq, payload))
    return AhPacket(sa.spi, seq, payload, icv, src, uid)


def ah_open(sa: SecurityAssociation, packet: AhPacket) -> bytes:
    """Verify the ICV and return the payload; raises on mismatch."""
    if packet.spi != sa.spi:
        raise IntegrityError(
            f"SPI mismatch: packet {packet.spi:#x} vs SA {sa.spi:#x}"
        )
    if not sa.mac.verify(
        _auth_data(packet.spi, packet.seq, packet.payload), packet.icv
    ):
        raise IntegrityError(f"bad ICV on {packet!r} (wrong or rekeyed SA)")
    return packet.payload
