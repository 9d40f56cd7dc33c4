"""Dead-peer detection (system S12).

Section 3 and the concluding remarks lean on reset *detection*: the IETF
remedy fires "once the reset is detected", and the Section 6 recovery
keeps SAs alive "after one host ... detects the unavailability of its
peer".  The two mechanisms the paper cites are:

* draft-ietf-ipsec-heartbeats ("Using ISAKMP Heartbeats for Dead Peer
  Detection") — periodic proactive probes: :class:`HeartbeatDpd`.
* draft-ietf-ipsec-dpd ("A Traffic-Based Method of Detecting Dead IKE
  Peers") — probe only when traffic is flowing out but nothing is coming
  back: :class:`TrafficDpd`.

Both report the same outcome: a *detection time* (reset -> declared dead),
the quantity the E7 recovery-latency comparison feeds on.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Engine
from repro.sim.process import SimProcess, Timer
from repro.util.validation import check_non_negative, check_positive, check_positive_int

#: Callback invoked with a probe token; must get the probe to the peer.
ProbeSender = Callable[[int], None]
#: Callback invoked once when the peer is declared dead.
DeadCallback = Callable[[], None]


class _DpdBase(SimProcess):
    """Probe bookkeeping shared by both DPD flavours."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        send_probe: ProbeSender,
        on_dead: DeadCallback,
        timeout: float,
        max_misses: int,
    ) -> None:
        super().__init__(engine, name)
        check_positive("timeout", timeout)
        self.send_probe = send_probe
        self.on_dead = on_dead
        self.timeout = timeout
        self.max_misses = check_positive_int("max_misses", max_misses)
        self.peer_alive = True
        self.declared_dead_at: float | None = None
        self.probes_sent = 0
        self.acks_received = 0
        self._misses = 0
        self._next_token = 1
        self._outstanding: set[int] = set()

    def _probe(self) -> None:
        token = self._next_token
        self._next_token += 1
        self._outstanding.add(token)
        self.probes_sent += 1
        self.trace("probe", token=token)
        self.send_probe(token)
        self.call_later(self.timeout, self._check_token, token)

    def on_probe_ack(self, token: int) -> None:
        """The peer answered probe ``token``."""
        if token not in self._outstanding:
            return  # late or duplicate ack
        self._outstanding.discard(token)
        self.acks_received += 1
        self._misses = 0
        if not self.peer_alive:
            self.peer_alive = True
            self.declared_dead_at = None
            self.trace("peer_revived")

    def _check_token(self, token: int) -> None:
        if token not in self._outstanding:
            return  # answered in time
        self._outstanding.discard(token)
        self._misses += 1
        self.trace("probe_timeout", token=token, misses=self._misses)
        if self._misses >= self.max_misses and self.peer_alive:
            self.peer_alive = False
            self.declared_dead_at = self.now
            self.trace("peer_dead")
            self.on_dead()


class HeartbeatDpd(_DpdBase):
    """Proactive periodic probing (the heartbeats draft).

    Worst-case detection time is
    ``interval + max_misses * max(interval, timeout)`` — the cost of
    proactivity is steady probe traffic even when the SA is busy.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        send_probe: ProbeSender,
        on_dead: DeadCallback,
        interval: float,
        timeout: float,
        max_misses: int = 3,
    ) -> None:
        super().__init__(engine, name, send_probe, on_dead, timeout, max_misses)
        check_positive("interval", interval)
        self.interval = interval
        self._timer = Timer(engine, interval, self._probe)

    def start(self, first_delay: float | None = None) -> None:
        """Begin probing."""
        self._timer.start(first_delay=first_delay)

    def stop(self) -> None:
        """Stop probing."""
        self._timer.stop()


class TrafficDpd(_DpdBase):
    """Traffic-based probing (the DPD draft).

    The host tells the detector about its own sends (:meth:`note_sent`)
    and about anything received from the peer (:meth:`note_received`).
    A probe is sent only when there has been outbound traffic but nothing
    inbound for ``idle_threshold`` — "there is no need to prove liveness
    when there is no traffic to protect".
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        send_probe: ProbeSender,
        on_dead: DeadCallback,
        idle_threshold: float,
        timeout: float,
        max_misses: int = 3,
        check_interval: float | None = None,
    ) -> None:
        super().__init__(engine, name, send_probe, on_dead, timeout, max_misses)
        check_positive("idle_threshold", idle_threshold)
        self.idle_threshold = idle_threshold
        self.last_sent: float | None = None
        self.last_received: float | None = None
        interval = check_interval if check_interval is not None else idle_threshold / 2
        check_positive("check interval", interval)
        self._timer = Timer(engine, interval, self._maybe_probe)

    def start(self, first_delay: float | None = None) -> None:
        """Begin idle monitoring."""
        self._timer.start(first_delay=first_delay)

    def stop(self) -> None:
        """Stop idle monitoring."""
        self._timer.stop()

    def note_sent(self) -> None:
        """The host sent protected traffic to the peer."""
        self.last_sent = self.now

    def note_received(self) -> None:
        """The host received protected traffic from the peer (proof of life)."""
        self.last_received = self.now
        self.on_probe_ack_any()

    def on_probe_ack_any(self) -> None:
        """Any inbound traffic counts as an implicit ack for all probes."""
        for token in list(self._outstanding):
            self.on_probe_ack(token)

    def _maybe_probe(self) -> None:
        if self.last_sent is None:
            return  # nothing outbound: nothing to prove
        received_recently = (
            self.last_received is not None
            and self.now - self.last_received < self.idle_threshold
        )
        if received_recently:
            return
        if self.now - self.last_sent > self.idle_threshold:
            return  # conversation fully idle; don't probe
        if self._outstanding:
            return  # one probe at a time; its timeout drives the misses
        self._probe()


def detection_time(dpd: _DpdBase, reset_time: float) -> float | None:
    """Reset -> declared-dead latency, or None if not (yet) detected."""
    check_non_negative("reset_time", reset_time)
    if dpd.declared_dead_at is None:
        return None
    return dpd.declared_dead_at - reset_time
