"""A per-host IPsec processing stack (RFC 2401 processing model).

The endpoint classes in :mod:`repro.core` implement the paper's abstract
(p, q) pair over a single SA.  :class:`IpsecStack` is the next layer up —
the piece a *host* runs, tying the substrates together the way RFC 2401
prescribes:

* **outbound**: consult the SPD (PROTECT / BYPASS / DISCARD); for PROTECT
  look up the newest outbound SA in the SAD, take the next sequence
  number from the per-SA :class:`SaveFetchSender`-style counter state,
  ESP-seal, and emit on the route to the destination;
* **inbound**: look the SA up by (SPI, this host) in the SAD, verify
  integrity, run the per-SA anti-replay window, and deliver upward.

Counters and windows live in per-SA :class:`OutboundSaState` /
:class:`InboundSaState` records, each with its own persistent store, so a
host-wide reset erases *all* volatile counter state at once and each SA
recovers independently via FETCH + leap — which is exactly the multi-SA
scenario whose rekey cost E7 prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.persistent import PersistentStore
from repro.ipsec.crypto import IntegrityError
from repro.ipsec.esp import EspPacket, esp_open, esp_seal
from repro.ipsec.replay_window import BitmapReplayWindow
from repro.ipsec.sa import SecurityAssociation
from repro.ipsec.sad import SecurityAssociationDatabase
from repro.ipsec.spd import PolicyAction, SecurityPolicyDatabase
from repro.sim.engine import Engine
from repro.sim.process import SimProcess


@dataclass
class OutboundSaState:
    """Volatile + persistent sender-side state for one SA."""

    sa: SecurityAssociation
    store: PersistentStore
    k: int
    s: int = 1  # next sequence number (volatile)
    lst: int = 1  # last initiated checkpoint (volatile)

    def next_seq(self) -> int:
        """Take the next sequence number, checkpointing every ``k``."""
        seq = self.s
        self.s += 1
        if self.s >= self.k + self.lst:
            self.lst = self.s
            self.store.begin_save(self.s)
        return seq

    def crash(self) -> None:
        self.store.crash()

    def recover(self) -> None:
        """FETCH + 2K leap; the stack awaits the synchronous SAVE."""
        fetched = self.store.fetch()
        self.s = fetched + 2 * self.k
        self.lst = self.s


@dataclass
class InboundSaState:
    """Volatile + persistent receiver-side state for one SA."""

    sa: SecurityAssociation
    store: PersistentStore
    k: int
    w: int
    window: BitmapReplayWindow = field(init=False)
    lst: int = 0

    def __post_init__(self) -> None:
        self.window = BitmapReplayWindow(self.w)

    def offer(self, seq: int):
        verdict = self.window.update(seq)
        r = self.window.right_edge
        if r >= self.k + self.lst:
            self.lst = r
            self.store.begin_save(r)
        return verdict

    def crash(self) -> None:
        self.store.crash()

    def recover(self) -> None:
        fetched = self.store.fetch()
        leaped = fetched + 2 * self.k
        self.window = BitmapReplayWindow(self.w)
        self.window.resume(leaped)
        self.lst = leaped


@dataclass
class StackStats:
    """Counters the stack maintains."""

    sent_protected: int = 0
    sent_bypassed: int = 0
    outbound_discarded: int = 0
    delivered: int = 0
    replay_discarded: int = 0
    integrity_failures: int = 0
    no_sa: int = 0
    dropped_while_down: int = 0


class IpsecStack(SimProcess):
    """One host's IPsec processing: SPD -> SAD -> ESP -> anti-replay.

    Args:
        engine: simulation engine.
        name: this host's name (selector matching and SAD lookups use it).
        spd: the host's security policy database.
        sad: the host's SA database (shared with IKE/rekey machinery).
        k: SAVE interval for every per-SA counter.
        w: anti-replay window size for every inbound SA.
        t_save: persistent-write latency for the per-SA stores.
        deliver_upward: callback ``(src_host, payload)`` for accepted
            inbound traffic.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        spd: SecurityPolicyDatabase,
        sad: SecurityAssociationDatabase,
        k: int = 25,
        w: int = 64,
        t_save: float = 100e-6,
        deliver_upward: Callable[[str, bytes], None] | None = None,
    ) -> None:
        super().__init__(engine, name)
        self.spd = spd
        self.sad = sad
        self.k = k
        self.w = w
        self.t_save = t_save
        self.deliver_upward = deliver_upward
        self.routes: dict[str, Callable[[Any], None]] = {}
        self.stats = StackStats()
        self.is_up = True
        self._outbound: dict[int, OutboundSaState] = {}  # by SPI
        self._inbound: dict[int, InboundSaState] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_route(self, destination: str, send_fn: Callable[[Any], None]) -> None:
        """Register the link used to reach ``destination``."""
        self.routes[destination] = send_fn

    def _outbound_state(self, sa: SecurityAssociation) -> OutboundSaState:
        state = self._outbound.get(sa.spi)
        if state is None:
            store = PersistentStore(
                self.engine,
                f"disk:{self.name}:out:{sa.spi:#x}",
                t_save=self.t_save,
                initial_value=1,
            )
            state = OutboundSaState(sa=sa, store=store, k=self.k)
            self._outbound[sa.spi] = state
        return state

    def _inbound_state(self, sa: SecurityAssociation) -> InboundSaState:
        state = self._inbound.get(sa.spi)
        if state is None:
            store = PersistentStore(
                self.engine,
                f"disk:{self.name}:in:{sa.spi:#x}",
                t_save=self.t_save,
                initial_value=0,
            )
            state = InboundSaState(sa=sa, store=store, k=self.k, w=self.w)
            self._inbound[sa.spi] = state
        return state

    # ------------------------------------------------------------------
    # Outbound path (RFC 2401 section 5.1)
    # ------------------------------------------------------------------
    def send(self, destination: str, payload: bytes, protocol: str = "any") -> bool:
        """Send application ``payload`` to ``destination`` per policy.

        Returns whether anything was emitted.
        """
        if not self.is_up:
            self.stats.dropped_while_down += 1
            return False
        action = self.spd.match(self.name, destination, protocol)
        if action is PolicyAction.DISCARD:
            self.stats.outbound_discarded += 1
            self.trace("spd_discard", dst=destination)
            return False
        route = self.routes.get(destination)
        if route is None:
            self.stats.outbound_discarded += 1
            self.trace("no_route", dst=destination)
            return False
        if action is PolicyAction.BYPASS:
            self.stats.sent_bypassed += 1
            route(("cleartext", self.name, payload))
            return True
        sa = self.sad.lookup_outbound(self.name, destination)
        if sa is None:
            # RFC 2401: PROTECT with no SA triggers IKE; here the caller
            # is responsible for negotiating (see RekeySimulation).
            self.stats.no_sa += 1
            self.trace("no_sa", dst=destination)
            return False
        state = self._outbound_state(sa)
        packet = esp_seal(sa, state.next_seq(), payload)
        self.stats.sent_protected += 1
        route(packet)
        return True

    # ------------------------------------------------------------------
    # Inbound path (RFC 2401 section 5.2)
    # ------------------------------------------------------------------
    def on_receive(self, packet: Any) -> None:
        """Link sink for anything arriving at this host."""
        if not self.is_up:
            self.stats.dropped_while_down += 1
            return
        if isinstance(packet, tuple) and packet and packet[0] == "cleartext":
            _tag, src, payload = packet
            if self.spd.match(src, self.name) is PolicyAction.BYPASS:
                self.stats.delivered += 1
                if self.deliver_upward is not None:
                    self.deliver_upward(src, payload)
            else:
                # Cleartext arriving where policy demands protection.
                self.stats.outbound_discarded += 1
            return
        if not isinstance(packet, EspPacket):
            self.trace("unknown_packet", packet=repr(packet))
            return
        sa = self.sad.lookup_inbound(packet.spi, self.name)
        if sa is None:
            self.stats.no_sa += 1
            self.trace("no_sa_for_spi", spi=packet.spi)
            return
        try:
            payload = esp_open(sa, packet)
        except IntegrityError:
            self.stats.integrity_failures += 1
            self.trace("integrity_fail", spi=packet.spi)
            return
        state = self._inbound_state(sa)
        verdict = state.offer(packet.seq)
        if verdict.accepted:
            self.stats.delivered += 1
            self.trace("deliver", seq=packet.seq, src=sa.src)
            if self.deliver_upward is not None:
                self.deliver_upward(sa.src, payload)
        else:
            self.stats.replay_discarded += 1
            self.trace("replay_discard", seq=packet.seq, verdict=verdict.value)

    # ------------------------------------------------------------------
    # Faults (host-wide)
    # ------------------------------------------------------------------
    def reset(self, down_for: float | None = 0.0) -> None:
        """A host reset: every SA's volatile counter state is lost."""
        self.trace("host_reset", sas=len(self._outbound) + len(self._inbound))
        self.is_up = False
        for state in self._outbound.values():
            state.crash()
        for state in self._inbound.values():
            state.crash()
        if down_for is not None:
            self.call_later(down_for, self.wake)

    def wake(self) -> None:
        """Recover every SA independently: FETCH + leap + synchronous SAVE.

        The host resumes traffic only after the slowest wake SAVE commits
        (they run concurrently on the simulated disk — a deliberate
        simplification noted in DESIGN.md; sequential IO would add
        ``n_sas * t_save``, still microseconds against E7's rekey train).
        """
        if self.is_up:
            return
        pending = {"count": 0}

        def one_done() -> None:
            pending["count"] -= 1
            if pending["count"] <= 0:
                self.is_up = True
                self.trace("host_up")

        states = list(self._outbound.values()) + list(self._inbound.values())
        if not states:
            self.is_up = True
            return
        for state in states:
            state.recover()
            pending["count"] += 1
            value = state.s if isinstance(state, OutboundSaState) else state.lst
            state.store.begin_save(value, on_commit=one_done, synchronous=True)
