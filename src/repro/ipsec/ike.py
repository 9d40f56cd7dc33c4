"""Simplified IKE (ISAKMP/Oakley) over the simulated network (system S6).

The IETF remedy for a reset — "the entire IPsec SA should be deleted and
reestablished once the reset is detected" — pays one full IKE negotiation
per SA.  Experiment E7 measures that cost against SAVE/FETCH, so the
handshake here is *message-faithful*: real packets cross the simulated
links with real latency, and the crypto steps consume simulated compute
time from the :class:`~repro.ipsec.costs.CostModel`.

Shape (following RFC 2409 main mode + quick mode):

====  =========  =======================================================
step  direction  contents / compute charged before sending
====  =========  =======================================================
 1    I -> R     SA proposal
 2    R -> I     SA accept
 3    I -> R     KE_i (DH public), nonce_i        [t_dh_exp]
 4    R -> I     KE_r (DH public), nonce_r        [t_dh_exp]
 5    I -> R     ID_i, AUTH_i                     [t_dh_exp + t_sig + t_prf]
 6    R -> I     ID_r, AUTH_r                     [t_dh_exp + t_sig + t_prf]
 7    I -> R     quick-mode 1 (hash, proposal)    [t_prf]
 8    R -> I     quick-mode 2                     [t_prf]
 9    I -> R     quick-mode 3 (ack)               [t_prf]
====  =========  =======================================================

The Diffie-Hellman exchange is *real* (Oakley Group 2, 1024-bit MODP, done
with Python big ints) so both sides independently derive the same master
secret, and the AUTH payloads are real HMACs over the transcript that each
peer verifies.  Only the *timing* is simulated (a 1024-bit modexp costs
``t_dh_exp`` of virtual time, not the microseconds Python actually needs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.ipsec.crypto import hmac_digest, hmac_verify
from repro.ipsec.sa import SaPair, make_sa_pair
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.util.rng import make_rng

#: Oakley Group 2 (RFC 2409, section 6.2): 1024-bit MODP prime, generator 2.
OAKLEY_GROUP2_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)
OAKLEY_GENERATOR = 2


@dataclass(frozen=True)
class IkeMessage:
    """One ISAKMP message on the wire."""

    session_id: int
    step: int
    sender: str
    body: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """Look up a body field."""
        for field_key, value in self.body:
            if field_key == key:
                return value
        return default

    def __repr__(self) -> str:
        return f"ike(session={self.session_id}, step={self.step}, from={self.sender})"


@dataclass(frozen=True)
class IkeConfig:
    """Negotiation parameters shared by both peers."""

    costs: CostModel = PAPER_COSTS
    sa_lifetime_seconds: float = 3600.0
    proposal: str = "esp-hmac-sha256"


class SerialCompute:
    """One CPU's crypto timeline, shared by concurrent negotiations.

    The sequential rekey train of E7 models a single-CPU host implicitly
    (one negotiation at a time).  A *rekey storm* — N renegotiations in
    flight at once after a gateway reset — needs the contention modeled
    explicitly: DH exponentiations and PRF evaluations from different
    sessions serialize on the host CPU exactly like SAVE/FETCH requests
    serialize on the shared store device.  Same FIFO-reservation shape
    as :class:`repro.gateway.store.SharedStore`: an operation issued
    while the CPU is busy starts late, and its *wall* duration is the
    queue wait plus its own compute.

    Wire one instance into every peer living on the recovering host
    (``compute=`` on the peer constructors); remote responders each get
    their own CPU (or ``None`` — uncontended, the E7 behaviour).
    """

    def __init__(self) -> None:
        self._busy_until = 0.0
        self.operations = 0
        self.busy_time = 0.0
        self.max_wait = 0.0

    def reserve(self, now: float, duration: float) -> float:
        """Reserve ``duration`` of CPU starting FIFO-earliest; returns
        the wall-clock delay until the operation completes."""
        self.operations += 1
        starts_at = max(now, self._busy_until)
        self._busy_until = starts_at + duration
        self.busy_time += duration
        self.max_wait = max(self.max_wait, starts_at - now)
        return self._busy_until - now


@dataclass
class IkeResult:
    """Outcome of one completed negotiation."""

    sa_pair: SaPair
    session_id: int
    messages_sent: int
    started_at: float
    completed_at: float
    compute_time: float = 0.0

    @property
    def latency(self) -> float:
        """Wall-clock (simulated) duration of the whole handshake."""
        return self.completed_at - self.started_at


class _IkePeer(SimProcess):
    """State shared by initiator and responder."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        peer_name: str,
        send_fn: Callable[[IkeMessage], None],
        config: IkeConfig | None = None,
        seed: int | None = None,
        on_complete: Callable[[IkeResult], None] | None = None,
        compute: SerialCompute | None = None,
    ) -> None:
        super().__init__(engine, name)
        self.peer_name = peer_name
        self.send_fn = send_fn
        self.config = config if config is not None else IkeConfig()
        self.on_complete = on_complete
        self.compute = compute
        self._rng = make_rng(seed)
        self.result: IkeResult | None = None
        # Per-session negotiation state.
        self._session_id: int | None = None
        self._started_at = 0.0
        self._messages_sent = 0
        self._compute_time = 0.0
        self._dh_private = 0
        self._dh_public = 0
        self._nonce = b""
        self._peer_nonce = b""
        self._peer_public = 0
        self._master_secret = b""
        self._expected_step = 0
        self._sa_generation = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _begin_session(self, session_id: int) -> None:
        self._session_id = session_id
        self._started_at = self.now
        self._messages_sent = 0
        self._compute_time = 0.0
        self._dh_private = self._rng.getrandbits(256) | 1
        self._dh_public = pow(OAKLEY_GENERATOR, self._dh_private, OAKLEY_GROUP2_PRIME)
        self._nonce = self._rng.getrandbits(128).to_bytes(16, "big")
        self.result = None

    def _send_after(self, compute: float, step: int, **body: Any) -> None:
        """Charge ``compute`` virtual time, then transmit message ``step``.

        With a shared :class:`SerialCompute`, the charge is a FIFO CPU
        reservation: the wall delay includes the queue wait in front of
        it (a rekey storm's contention).  Without one, compute runs
        uncontended — the E7 sequential-train behaviour, unchanged.
        """
        self._compute_time += compute

        def transmit() -> None:
            assert self._session_id is not None
            message = IkeMessage(
                session_id=self._session_id,
                step=step,
                sender=self.name,
                body=tuple(sorted(body.items())),
            )
            self._messages_sent += 1
            self.trace("ike_send", step=step)
            self.send_fn(message)

        if compute > 0:
            delay = (
                self.compute.reserve(self.now, compute)
                if self.compute is not None
                else compute
            )
            self.call_later(delay, transmit)
        else:
            transmit()

    def _derive_master(self) -> None:
        shared = pow(self._peer_public, self._dh_private, OAKLEY_GROUP2_PRIME)
        shared_bytes = shared.to_bytes((shared.bit_length() + 7) // 8 or 1, "big")
        nonce_i, nonce_r = sorted([self._nonce, self._peer_nonce])
        self._master_secret = hashlib.sha256(
            shared_bytes + nonce_i + nonce_r
        ).digest()

    def _transcript_auth(self, signer: str) -> bytes:
        data = (
            signer.encode()
            + self._dh_public.to_bytes(128, "big")
            + self._peer_public.to_bytes(128, "big")
        )
        return hmac_digest(self._master_secret, data)

    def _peer_auth_ok(self, auth: Any) -> bool:
        """Whether ``auth`` is the peer's transcript MAC (constant time).

        ``auth`` is peer input: a missing or non-bytes value fails.
        """
        if not isinstance(auth, bytes):
            return False
        data = (
            self.peer_name.encode()
            + self._peer_public.to_bytes(128, "big")
            + self._dh_public.to_bytes(128, "big")
        )
        return hmac_verify(self._master_secret, data, auth)

    def _finish(self, initiator_name: str, responder_name: str) -> None:
        assert self._session_id is not None
        sa_pair = make_sa_pair(
            initiator_name,
            responder_name,
            seed_or_rng=self._rng,
            now=self.now,
            lifetime_seconds=self.config.sa_lifetime_seconds,
            generation=self._sa_generation,
            master_secret=self._master_secret,
        )
        self._sa_generation += 1
        self.result = IkeResult(
            sa_pair=sa_pair,
            session_id=self._session_id,
            messages_sent=self._messages_sent,
            started_at=self._started_at,
            completed_at=self.now,
            compute_time=self._compute_time,
        )
        self.trace("ike_complete", session=self._session_id, latency=self.result.latency)
        if self.on_complete is not None:
            self.on_complete(self.result)

    def _protocol_error(self, message: IkeMessage, reason: str) -> None:
        self.trace("ike_error", step=message.step, reason=reason)
        raise ValueError(f"{self.name}: IKE protocol error at {message!r}: {reason}")


class IkeInitiator(_IkePeer):
    """The peer that starts the negotiation (steps 1, 3, 5, 7, 9)."""

    _next_session = 1

    def start(self) -> int:
        """Begin a new negotiation; returns the session id."""
        session_id = IkeInitiator._next_session
        IkeInitiator._next_session += 1
        self._begin_session(session_id)
        self._expected_step = 2
        self._send_after(0.0, 1, proposal=self.config.proposal)
        return session_id

    def on_receive(self, message: IkeMessage) -> None:
        """Handle a responder message."""
        costs = self.config.costs
        if message.session_id != self._session_id or message.step != self._expected_step:
            self.trace("ike_ignored", step=message.step)
            return
        if message.step == 2:
            if message.get("proposal") != self.config.proposal:
                self._protocol_error(message, "proposal rejected")
            self._expected_step = 4
            self._send_after(
                costs.t_dh_exp, 3, ke=self._dh_public, nonce=self._nonce
            )
        elif message.step == 4:
            self._peer_public = message.get("ke")
            self._peer_nonce = message.get("nonce")
            self._derive_master()
            self._expected_step = 6
            self._send_after(
                costs.t_dh_exp + costs.t_sig + costs.t_prf,
                5,
                auth=self._transcript_auth(self.name),
            )
        elif message.step == 6:
            if not self._peer_auth_ok(message.get("auth")):
                self._protocol_error(message, "responder authentication failed")
            self._expected_step = 8
            self._send_after(costs.t_prf, 7, proposal=self.config.proposal)
        elif message.step == 8:
            self._expected_step = 0
            self._send_after(costs.t_prf, 9, ack=True)
            # Initiator derives SAs as soon as QM3 is on the wire.
            self.call_later(costs.t_prf, self._finish, self.name, self.peer_name)


class IkeResponder(_IkePeer):
    """The peer that answers the negotiation (steps 2, 4, 6, 8)."""

    def on_receive(self, message: IkeMessage) -> None:
        """Handle an initiator message."""
        costs = self.config.costs
        if message.step == 1:
            self._begin_session(message.session_id)
            self._expected_step = 3
            if message.get("proposal") != self.config.proposal:
                self._protocol_error(message, "unacceptable proposal")
            self._send_after(0.0, 2, proposal=self.config.proposal)
            return
        if message.session_id != self._session_id or message.step != self._expected_step:
            self.trace("ike_ignored", step=message.step)
            return
        if message.step == 3:
            self._peer_public = message.get("ke")
            self._peer_nonce = message.get("nonce")
            self._expected_step = 5
            self._send_after(
                costs.t_dh_exp, 4, ke=self._dh_public, nonce=self._nonce
            )
        elif message.step == 5:
            self._derive_master()
            if not self._peer_auth_ok(message.get("auth")):
                self._protocol_error(message, "initiator authentication failed")
            self._expected_step = 7
            self._send_after(
                costs.t_dh_exp + costs.t_sig + costs.t_prf,
                6,
                auth=self._transcript_auth(self.name),
            )
        elif message.step == 7:
            self._expected_step = 9
            self._send_after(costs.t_prf, 8, ack=True)
        elif message.step == 9:
            self._expected_step = 0
            self._finish(self.peer_name, self.name)
