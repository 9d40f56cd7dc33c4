"""Encapsulation helpers shared by the sender and receiver endpoints.

The anti-replay protocol is agnostic to whether messages travel as plain
``msg(s)`` records, ESP packets or AH packets; these helpers give the
endpoints one seal/open interface over all three.  ``"plain"`` is the
paper's abstract model; ``"esp"``/``"ah"`` add enforced integrity, which
the IETF-rekey baseline requires.
"""

from __future__ import annotations

from typing import Any

from repro.ipsec.ah import ah_open, ah_seal
from repro.ipsec.crypto import IntegrityError
from repro.ipsec.esp import esp_open, esp_seal
from repro.ipsec.sa import SecurityAssociation
from repro.net.message import Message

#: Supported encapsulation modes.
ENCAP_MODES = ("plain", "esp", "ah")


def seal(
    encap: str,
    sa: SecurityAssociation | None,
    seq: int,
    payload: bytes,
    now: float,
    uid: int | None,
    src: str | None = None,
) -> Any:
    """Build the wire packet for sequence number ``seq``.

    ``uid`` is the audit uid of this fresh transmission (see
    :mod:`repro.core.audit`; ``None`` when nobody audits the run).
    ``src`` is the sender's current network binding (``None`` in the
    paper's address-less model).  Both ride the envelope, so for ESP/AH
    they are outside the authenticated payload — which is precisely why a
    NAT can change ``src`` mid-SA without breaking the ICV (see
    :mod:`repro.netpath.nat`).
    """
    if encap == "plain":
        return Message(seq, payload, now, src, uid)
    if sa is None:
        raise ValueError(f"encap={encap!r} requires a SecurityAssociation")
    if encap == "esp":
        return esp_seal(sa, seq, payload, src, uid)
    if encap == "ah":
        return ah_seal(sa, seq, payload, src, uid)
    raise ValueError(f"unknown encap mode {encap!r}; expected one of {ENCAP_MODES}")


def open_packet(
    encap: str, sa: SecurityAssociation | None, packet: Any
) -> tuple[int, bytes]:
    """Return ``(seq, payload)`` of a wire packet.

    Raises:
        IntegrityError: if ESP/AH verification fails (wrong SA/keys).
    """
    if encap == "plain":
        return packet.seq, packet.payload
    if sa is None:
        raise ValueError(f"encap={encap!r} requires a SecurityAssociation")
    if encap == "esp":
        return packet.seq, esp_open(sa, packet)
    if encap == "ah":
        return packet.seq, ah_open(sa, packet)
    raise ValueError(f"unknown encap mode {encap!r}; expected one of {ENCAP_MODES}")


__all__ = ["ENCAP_MODES", "IntegrityError", "open_packet", "seal"]
