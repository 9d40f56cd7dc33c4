"""Section 6: surviving *prolonged* resets over a bidirectional SA pair.

The concluding remarks sketch a recovery protocol for long outages:

1. "usually an IPsec communication between two hosts is bi-directional" —
   each host is both a sender and a receiver, over two SAs.
2. The live host "detects the unavailability of its peer by receiving the
   ICMP undeliverable message" and then "keeps the SAs (both the one for
   sending and the one for receiving) alive for a certain period of time"
   instead of tearing them down.
3. "When the reset host wakes up, it can send a secured message to inform
   its peer that it has become up. This message should contain the new
   sequence number resulting from adding the leap number to the reloaded
   sequence number."  The live host validates it "by comparing the
   sequence number of the message against the right edge of its
   anti-replay window" — a replayed old message fails that comparison.
4. "The waiting time for which SAs are kept alive cannot be too long" —
   if the keep-alive expires first, the host falls back to full rekeying.

:class:`ProlongedResetSession` wires all of that up: two hosts, four
SAVE/FETCH endpoints, availability-aware links that generate ICMP
unreachable messages while a host is down, keep-alive timers, the secured
resync message, and (optionally) an adversary replaying old traffic into
the live host during the outage.

The module also implements the strawman the paper rejects — the
unauthenticated-by-sequence "I was reset; let us both reset the sequence
number" notice (:class:`ResetNoticeReceiver`) — so experiment E12 can
demonstrate the replay attack against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.audit import DeliveryAuditor
from repro.core.receiver import SaveFetchReceiver, UnprotectedReceiver
from repro.core.sender import SaveFetchSender
from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.ipsec.replay_window import BitmapReplayWindow
from repro.ipsec.sa import SaPair, make_sa_pair
from repro.net.adversary import ReplayAdversary
from repro.net.delay import FixedDelay
from repro.net.icmp import IcmpMessage
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.process import SimProcess
from repro.sim.trace import TraceRecorder
from repro.util.validation import check_positive


@dataclass
class HostReport:
    """Per-host outcome of a prolonged-reset run."""

    name: str
    peer_down_detected_at: float | None = None
    peer_back_up_at: float | None = None
    keepalive_expired: bool = False
    resync_seq: int | None = None
    replays_accepted: int = 0
    fresh_discarded: int = 0


class RecoveryHost(SimProcess):
    """One endpoint of the bidirectional session: a sender plus a receiver
    sharing the host's fate (a reset takes both down)."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        peer_name: str,
        k: int,
        w: int,
        costs: CostModel,
        keep_alive_timeout: float,
        send_interval: float,
    ) -> None:
        super().__init__(engine, name)
        self.peer_name = peer_name
        self.k = k
        self.w = w
        self.costs = costs
        self.keep_alive_timeout = keep_alive_timeout
        self.send_interval = send_interval
        # Wired by the session after links exist.
        self.sender: SaveFetchSender | None = None
        self.receiver: SaveFetchReceiver | None = None
        # Peer liveness belief (Section 6 state).
        self.peer_believed_up = True
        self.report = HostReport(name=name)
        self._keepalive_event: Event | None = None

    @property
    def is_up(self) -> bool:
        """Host availability (drives the peer-facing link)."""
        return self.receiver is not None and self.receiver.is_up

    # ------------------------------------------------------------------
    # Section 6 step 2: ICMP-driven down detection + keep-alive
    # ------------------------------------------------------------------
    def on_icmp(self, icmp: IcmpMessage) -> None:
        """An outbound packet bounced: the peer is down."""
        if not self.peer_believed_up:
            return
        self.peer_believed_up = False
        self.report.peer_down_detected_at = self.now
        self.trace("peer_down_detected")
        assert self.sender is not None
        self.sender.stop_traffic()  # hold traffic; keep the SAs alive
        self._keepalive_event = self.call_later(
            self.keep_alive_timeout, self._keepalive_expired
        )

    def _keepalive_expired(self) -> None:
        if self.peer_believed_up:
            return
        self.report.keepalive_expired = True
        self.trace("keepalive_expired")
        # Beyond this point a real host would fall back to full IKE
        # renegotiation (measured separately by the rekey baseline).

    # ------------------------------------------------------------------
    # Section 6 step 3: accepting the peer's secured resync message
    # ------------------------------------------------------------------
    def on_deliver(self, seq: int, payload: bytes) -> None:
        """Any delivered message is proof of life; the resync message is
        simply the first one after an outage (its sequence number already
        passed the right-edge comparison inside the window)."""
        if self.peer_believed_up:
            return
        self.peer_believed_up = True
        self.report.peer_back_up_at = self.now
        self.report.resync_seq = seq
        if self._keepalive_event is not None:
            self._keepalive_event.cancel()
            self._keepalive_event = None
        self.trace("peer_back_up", resync_seq=seq)
        assert self.sender is not None
        if not self.report.keepalive_expired:
            self.sender.start_traffic(interval=self.send_interval)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def reset_host(self, down_for: float) -> None:
        """Reset both directions of this host at once."""
        assert self.sender is not None and self.receiver is not None
        self.trace("host_reset")
        self.sender.stop_traffic()
        self.sender.reset(down_for=down_for)
        self.receiver.reset(down_for=down_for)

    def announce_recovery(self) -> None:
        """Section 6 step 3: send the secured resync message.

        Called when the sender's post-wake SAVE committed; the message is
        an ordinary protected message carrying the leaped sequence number.
        """
        assert self.sender is not None
        self.trace("resync_send", seq=self.sender.s)
        self.sender.send_one()
        # Resume steady traffic toward the peer as well.
        self.sender.start_traffic(interval=self.send_interval)


@dataclass
class SessionReport:
    """Outcome of a full prolonged-reset scenario."""

    host_a: HostReport
    host_b: HostReport
    replayed_into_live_host: int = 0
    replays_accepted_total: int = 0

    @property
    def recovered(self) -> bool:
        """Both sides believe each other up and no replay was accepted."""
        return (
            self.replays_accepted_total == 0
            and self.host_a.peer_back_up_at is not None
        )


class ProlongedResetSession:
    """Two hosts, four SAVE/FETCH endpoints, ICMP, keep-alives, resync.

    Args:
        k: SAVE interval for all four endpoints.
        w: window size for both receivers.
        costs: cost model.
        keep_alive_timeout: how long a live host keeps SAs for a down peer.
        rtt: round-trip time between the hosts.
        send_interval: steady-state send pacing per direction.
        seed: master seed.
        with_adversary: attach a replay adversary on the b -> a link that
            can inject old traffic into the live host during the outage.
    """

    def __init__(
        self,
        k: int = 25,
        w: int = 64,
        costs: CostModel = PAPER_COSTS,
        keep_alive_timeout: float = 1.0,
        rtt: float = 0.002,
        send_interval: float | None = None,
        seed: int = 0,
        with_adversary: bool = False,
        trace: TraceRecorder | None = None,
    ) -> None:
        check_positive("keep_alive_timeout", keep_alive_timeout)
        self.engine = Engine(trace=trace)
        self.costs = costs
        self.send_interval = (
            send_interval if send_interval is not None else costs.t_send * 10
        )
        self.sa_pair: SaPair = make_sa_pair("a", "b", seed_or_rng=seed)
        self.auditor_ab = DeliveryAuditor()  # a -> b direction
        self.auditor_ba = DeliveryAuditor()  # b -> a direction

        self.host_a = RecoveryHost(
            self.engine, "a", "b", k, w, costs, keep_alive_timeout, self.send_interval
        )
        self.host_b = RecoveryHost(
            self.engine, "b", "a", k, w, costs, keep_alive_timeout, self.send_interval
        )

        # Receivers first (links need their sinks).
        self.host_a.receiver = SaveFetchReceiver(
            self.engine,
            "a.rx",
            k=k,
            w=w,
            costs=costs,
            auditor=self.auditor_ba,
            sa=self.sa_pair.backward,
            encap="esp",
            on_deliver=self.host_a.on_deliver,
        )
        self.host_b.receiver = SaveFetchReceiver(
            self.engine,
            "b.rx",
            k=k,
            w=w,
            costs=costs,
            auditor=self.auditor_ab,
            sa=self.sa_pair.forward,
            encap="esp",
            on_deliver=self.host_b.on_deliver,
        )

        one_way = FixedDelay(rtt / 2.0)
        self.link_ab = Link(
            self.engine,
            "link:a->b",
            sink=self.host_b.receiver.on_receive,
            delay=one_way,
            fifo=True,
            availability=lambda: self.host_b.is_up,
            icmp_sink=self.host_a.on_icmp,
        )
        self.link_ba = Link(
            self.engine,
            "link:b->a",
            sink=self.host_a.receiver.on_receive,
            delay=one_way,
            fifo=True,
            availability=lambda: self.host_a.is_up,
            icmp_sink=self.host_b.on_icmp,
        )

        self.host_a.sender = SaveFetchSender(
            self.engine,
            "a.tx",
            self.link_ab,
            k=k,
            costs=costs,
            auditor=self.auditor_ab,
            sa=self.sa_pair.forward,
            encap="esp",
        )
        self.host_b.sender = SaveFetchSender(
            self.engine,
            "b.tx",
            self.link_ba,
            k=k,
            costs=costs,
            auditor=self.auditor_ba,
            sa=self.sa_pair.backward,
            encap="esp",
        )

        # Section 6 step 3: once a reset host's sender finishes its
        # post-wake SAVE, announce recovery with a secured message.
        self.host_a.sender.add_resume_listener(self.host_a.announce_recovery)
        self.host_b.sender.add_resume_listener(self.host_b.announce_recovery)

        self.adversary: ReplayAdversary | None = None
        if with_adversary:
            self.adversary = ReplayAdversary(
                self.engine, self.link_ba, name="adversary:b->a", seed=seed + 99
            )

    def start_traffic(self) -> None:
        """Begin steady bidirectional traffic."""
        assert self.host_a.sender is not None and self.host_b.sender is not None
        self.host_a.sender.start_traffic(interval=self.send_interval)
        self.host_b.sender.start_traffic(interval=self.send_interval)

    def stop_traffic(self) -> None:
        """Stop both traffic clocks (lets the engine drain)."""
        assert self.host_a.sender is not None and self.host_b.sender is not None
        self.host_a.sender.stop_traffic()
        self.host_b.sender.stop_traffic()

    def run(self, until: float) -> None:
        """Advance the simulation to ``until``."""
        self.engine.run(until=until)

    def report(self) -> SessionReport:
        """Score the scenario."""
        self.host_a.report.replays_accepted = self.auditor_ba.replays_accepted
        self.host_a.report.fresh_discarded = self.auditor_ba.fresh_discarded
        self.host_b.report.replays_accepted = self.auditor_ab.replays_accepted
        self.host_b.report.fresh_discarded = self.auditor_ab.fresh_discarded
        return SessionReport(
            host_a=self.host_a.report,
            host_b=self.host_b.report,
            replayed_into_live_host=(
                self.adversary.injections if self.adversary else 0
            ),
            replays_accepted_total=(
                self.auditor_ab.replays_accepted + self.auditor_ba.replays_accepted
            ),
        )


# ----------------------------------------------------------------------
# The strawman the paper rejects (for experiment E12)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResetNotice:
    """The naive "I was reset; reset the sequence number" control message.

    It carries no usable freshness: by design it must be honoured when the
    sender has lost all state, so the receiver cannot tell an original
    from a replay — which is exactly the paper's objection.
    """

    origin: str
    sent_at: float

    def __repr__(self) -> str:
        return f"reset_notice(from={self.origin})"


class ResetNoticeReceiver(UnprotectedReceiver):
    """An unprotected receiver that honours :class:`ResetNotice` messages.

    On a (possibly replayed) notice it reinitialises its window to the
    cold-start state — after which the adversary may replay history.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.notices_honoured = 0

    def on_receive(self, packet: Any) -> None:
        if isinstance(packet, ResetNotice):
            if not self.is_up:
                self.dropped_while_down += 1
                return
            self.notices_honoured += 1
            self.window = BitmapReplayWindow(self.window.w)
            self.trace("notice_honoured", origin=packet.origin)
            return
        super().on_receive(packet)


def send_reset_notice(
    sender_name: str, link: Link, now: float
) -> ResetNotice:
    """Emit a reset notice on ``link`` (used by the E12 scenario)."""
    notice = ResetNotice(origin=sender_name, sent_at=now)
    link.send(notice)
    return notice


__all__ = [
    "HostReport",
    "ProlongedResetSession",
    "RecoveryHost",
    "ResetNotice",
    "ResetNoticeReceiver",
    "SessionReport",
    "send_reset_notice",
]
