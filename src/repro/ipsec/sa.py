"""Security associations (RFC 2401 model, simulation form).

An SA is unidirectional: "a selected computer pair (p, q) ... has to
establish a unidirectional security association before computer p can start
sending messages to computer q."  Its components per the paper include
authentication and encryption keys and shared secrets, algorithms, key
lifetimes, the sender's sequence number and the receiver's anti-replay
window.

Here :class:`SecurityAssociation` holds the *stable* attributes — the ones
the paper observes "remain the same during the lifetime of this SA" and
that make full re-establishment expensive.  The *volatile* attributes (the
sequence counter and the window) live in the protocol endpoints
(:mod:`repro.core.sender` / :mod:`repro.core.receiver`), because they are
precisely the state a reset erases; keeping them separate makes the fault
model explicit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.ipsec.crypto import MacKey, derive_key, generate_key
from repro.util.rng import make_rng

_spi_counter = itertools.count(0x1000)

#: Default algorithm labels (simulated; see crypto module).
AUTH_ALG = "hmac-sha256"
ENC_ALG = "xor-stream-sim"

#: Peer-address rebinding policies (RFC 3947/4555-style NAT handling,
#: simulation form; enforced by the SAD and by
#: :class:`repro.netpath.NatGate`):
#:
#: * ``"static"`` — addresses are ignored entirely (the paper's model:
#:   an SA names hosts, not network bindings).
#: * ``"strict"`` — the SA is pinned to the address it was established
#:   from; traffic from any other source is dropped.  Safe, but a NAT
#:   rebinding mid-SA silently kills the tunnel.
#: * ``"rebind_on_valid"`` — MOBIKE-style: the binding moves to a new
#:   source address the first time a packet from it passes the
#:   anti-replay window.  In-flight packets from the old binding are
#:   still processed — the window, not the address, remains the replay
#:   authority.
REBIND_POLICIES = ("static", "strict", "rebind_on_valid")


@dataclass(frozen=True)
class SecurityAssociation:
    """The stable attributes of one unidirectional SA.

    Attributes:
        spi: Security Parameter Index identifying the SA at the receiver.
        src: name of the sending host.
        dst: name of the receiving host.
        auth_key: HMAC key for the ICV.
        enc_key: key for the (simulated) cipher.
        auth_alg / enc_alg: algorithm labels.
        lifetime_seconds: soft lifetime after which rekeying is due.
        created_at: simulated establishment time.
        generation: how many times this (p, q, direction) SA slot has been
            re-established; the IETF-rekey baseline bumps it.
        rebind_policy: what happens when the peer's *network binding*
            (not its identity) changes mid-SA — one of
            :data:`REBIND_POLICIES`.  Stable like the other attributes:
            the policy is negotiated at establishment, the *current*
            binding is volatile state tracked by the SAD.
        mac: the HMAC key schedule of ``auth_key``, built once here so
            that no packet pays for it; derived, so it stays out of
            ``repr``, equality and the hash.
    """

    spi: int
    src: str
    dst: str
    auth_key: bytes
    enc_key: bytes
    auth_alg: str = AUTH_ALG
    enc_alg: str = ENC_ALG
    lifetime_seconds: float = 3600.0
    created_at: float = 0.0
    generation: int = 0
    rebind_policy: str = "static"
    mac: MacKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rebind_policy not in REBIND_POLICIES:
            raise ValueError(
                f"unknown rebind policy {self.rebind_policy!r}; "
                f"expected one of {REBIND_POLICIES}"
            )
        object.__setattr__(self, "mac", MacKey(self.auth_key))

    def expired(self, now: float) -> bool:
        """Whether the soft lifetime has elapsed at simulated time ``now``."""
        return now - self.created_at >= self.lifetime_seconds

    def __repr__(self) -> str:
        return (
            f"SA(spi={self.spi:#x}, {self.src}->{self.dst}, gen={self.generation})"
        )


@dataclass(frozen=True)
class SaPair:
    """The two unidirectional SAs of a bidirectional IPsec conversation."""

    forward: SecurityAssociation  #: p -> q
    backward: SecurityAssociation  #: q -> p

    def for_sender(self, host: str) -> SecurityAssociation:
        """The outbound SA when ``host`` is sending."""
        if host == self.forward.src:
            return self.forward
        if host == self.backward.src:
            return self.backward
        raise KeyError(f"host {host!r} is not an endpoint of {self!r}")


def make_sa(
    src: str,
    dst: str,
    seed_or_rng: int | random.Random | None = None,
    now: float = 0.0,
    lifetime_seconds: float = 3600.0,
    generation: int = 0,
    master_secret: bytes | None = None,
    spi: int | None = None,
    rebind_policy: str = "static",
) -> SecurityAssociation:
    """Create one unidirectional SA with fresh (seeded) key material.

    If ``master_secret`` is given (e.g. a real Diffie-Hellman result from
    :mod:`repro.ipsec.ike`), keys **and the SPI** are derived from it, so
    the two peers of a negotiation independently construct byte-identical
    SAs.  Otherwise keys come from the seed and the SPI from a process-
    local counter.
    """
    rng = make_rng(seed_or_rng)
    if spi is None:
        if master_secret is not None:
            spi = int.from_bytes(
                derive_key(master_secret, f"spi:{src}->{dst}:{generation}")[:4],
                "big",
            )
        else:
            spi = next(_spi_counter)
    if master_secret is None:
        master_secret = generate_key(rng)
    return SecurityAssociation(
        spi=spi,
        src=src,
        dst=dst,
        auth_key=derive_key(master_secret, f"auth:{src}->{dst}:{generation}"),
        enc_key=derive_key(master_secret, f"enc:{src}->{dst}:{generation}"),
        lifetime_seconds=lifetime_seconds,
        created_at=now,
        generation=generation,
        rebind_policy=rebind_policy,
    )


def make_sa_pair(
    host_a: str,
    host_b: str,
    seed_or_rng: int | random.Random | None = None,
    now: float = 0.0,
    lifetime_seconds: float = 3600.0,
    generation: int = 0,
    master_secret: bytes | None = None,
    rebind_policy: str = "static",
) -> SaPair:
    """Create the forward (a->b) and backward (b->a) SAs of a conversation."""
    rng = make_rng(seed_or_rng)
    if master_secret is None:
        master_secret = generate_key(rng)
    return SaPair(
        forward=make_sa(
            host_a,
            host_b,
            rng,
            now=now,
            lifetime_seconds=lifetime_seconds,
            generation=generation,
            master_secret=master_secret,
            rebind_policy=rebind_policy,
        ),
        backward=make_sa(
            host_b,
            host_a,
            rng,
            now=now,
            lifetime_seconds=lifetime_seconds,
            generation=generation,
            master_secret=master_secret,
            rebind_policy=rebind_policy,
        ),
    )
