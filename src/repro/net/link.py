"""Unidirectional simulated links.

A :class:`Link` accepts packets via :meth:`Link.send`, applies its loss
model, samples a delay, and schedules delivery to its *sink* (any callable
taking the packet).  Optional pieces:

* **taps** observe every offered packet — this is how the
  :class:`~repro.net.adversary.ReplayAdversary` records traffic without
  the protocol knowing.
* **availability**: a callable reporting whether the destination host is
  currently up; packets offered while it is down are dropped and, if an
  ``icmp_sink`` is configured, converted into ICMP destination-unreachable
  notifications back toward the source (used by Section 6 recovery and by
  dead-peer detection).
* **fifo=True** forces in-order delivery (delivery time is clamped to be
  monotone), modelling the paper's "no message reorder occurs" hypothesis
  in claim (i).
* **path**: a :class:`~repro.netpath.PathProfile` makes the link's
  conditions *time-varying* — an ordered timeline of delay/loss/up
  regimes the link steps through lazily, per offered packet.  A static
  single-phase profile resolves at construction and runs the exact
  fixed-channel hot path (golden-parity pinned); the path fault kinds
  of :mod:`repro.faults` (:class:`~repro.faults.PathFlap`,
  :class:`~repro.faults.RegimeShift`) drive the :meth:`Link.path_down` /
  :meth:`Link.path_up` / :meth:`Link.shift_regime` hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.net.delay import DelayModel, FixedDelay, delay_from_dict
from repro.net.icmp import IcmpMessage, IcmpType
from repro.net.loss import LossModel, NoLoss, loss_from_dict
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - layering guard (repro.netpath
    # imports repro.net; the runtime coupling here is duck-typed via
    # PathProfile.bind() so no import cycle exists)
    from repro.netpath.profile import PathPhase, PathProfile


class _RegimeView:
    """Adapter presenting a bare phase to :meth:`Link._apply_regime`
    with freshly cloned models (same semantics as a profile transition)."""

    __slots__ = ("delay", "loss", "up", "fifo")

    def __init__(self, phase: "PathPhase") -> None:
        self.delay = (
            None if phase.delay is None else delay_from_dict(phase.delay.to_dict())
        )
        self.loss = (
            None if phase.loss is None else loss_from_dict(phase.loss.to_dict())
        )
        self.up = phase.up
        self.fifo = phase.fifo

#: A tap receives ``(time, packet, injected)`` for every packet offered to
#: the link; ``injected`` is True for adversary insertions.
TapFn = Callable[[float, Any, bool], None]


class PacketPipe(Protocol):
    """Anything that accepts packets via ``send`` (links, reorder stages)."""

    def send(self, packet: Any) -> None:  # pragma: no cover - protocol
        ...


class Link(SimProcess):
    """A unidirectional lossy, delaying link from one host to another.

    Args:
        engine: the simulation engine.
        name: trace name, conventionally ``"link:p->q"``.
        sink: callable invoked with each delivered packet.
        delay: per-packet delay model (default: zero-latency).
        loss: packet loss model (default: reliable).
        seed: RNG seed or generator for loss/delay draws.
        fifo: if True, delivery order equals send order regardless of the
            delay model (delivery times are clamped to be monotone).
        availability: optional callable; when it returns False the
            destination is down and offered packets are undeliverable.
        icmp_sink: optional callable receiving :class:`IcmpMessage` when a
            packet is undeliverable.
        path: optional :class:`~repro.netpath.PathProfile`.  Phase
            models override ``delay``/``loss`` while active (``None``
            fields inherit them); a static profile resolves here and
            adds nothing to the hot path.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        sink: Callable[[Any], None],
        delay: DelayModel | None = None,
        loss: LossModel | None = None,
        seed: int | None = None,
        fifo: bool = False,
        availability: Callable[[], bool] | None = None,
        icmp_sink: Callable[[IcmpMessage], None] | None = None,
        path: "PathProfile | None" = None,
    ) -> None:
        super().__init__(engine, name)
        self.sink = sink
        self.delay = delay if delay is not None else FixedDelay(0.0)
        self.loss = loss if loss is not None else NoLoss()
        self.fifo = fifo
        self.availability = availability
        self.icmp_sink = icmp_sink
        self._rng = make_rng(seed)
        self._taps: list[TapFn] = []
        self._last_delivery_time = 0.0
        # Statistics (monotonic; experiments read these).
        self.offered = 0
        self.dropped = 0
        self.delivered = 0
        self.undeliverable = 0
        self.injected = 0
        self.blackholed = 0
        self.regime_shifts = 0
        # Path dynamics.  The base models are what phases with delay=None
        # / loss=None fall back to; _path_up is the profile's up flag,
        # _forced_down a depth counter driven by PathFlap windows.
        self.path_profile = path
        self._base_delay = self.delay
        self._base_loss = self.loss
        self._base_fifo = fifo
        self._path_up = True
        self._forced_down = 0
        self._timeline = None
        if path is not None:
            timeline = path.bind(seed)
            self._apply_regime(timeline)
            # Static profiles resolve once; only a timeline that will
            # actually transition earns the per-packet check.
            if not timeline.is_static:
                self._timeline = timeline

    # ------------------------------------------------------------------
    # Taps
    # ------------------------------------------------------------------
    def add_tap(self, tap: TapFn) -> None:
        """Register a tap; it sees every packet offered to the link."""
        self._taps.append(tap)

    def remove_tap(self, tap: TapFn) -> None:
        """Unregister a tap previously added with :meth:`add_tap`."""
        self._taps.remove(tap)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _transmit(self, packet: Any, injected: bool = False) -> None:
        """Offer a packet from the legitimate sender (``injected`` is set
        only by :meth:`inject`)."""
        engine = self.engine
        now = engine.now
        self.offered += 1
        for tap in self._taps:
            tap(now, packet, injected)
        timeline = self._timeline
        if timeline is not None and now >= timeline.next_change:
            timeline.advance(now)
            self._apply_regime(timeline)
        if self._forced_down or not self._path_up:
            self.blackholed += 1
            self.dropped += 1
            if engine.trace.enabled:
                self.trace("blackhole", packet=repr(packet), injected=injected)
            return
        if self.loss.should_drop(self._rng):
            self.dropped += 1
            if engine.trace.enabled:
                self.trace("drop", packet=repr(packet), injected=injected)
            return
        delivery_time = now + self.delay.sample(self._rng)
        if delivery_time < self._last_delivery_time:
            if self.fifo:
                delivery_time = self._last_delivery_time
        else:
            self._last_delivery_time = delivery_time
        # Deliveries are never cancelled, so they ride the zero-alloc
        # post path (no Event handle).
        engine.post_at(delivery_time, self._deliver, packet, injected)

    #: Offer a packet from the legitimate sender.  The transmit itself,
    #: under its public name: a send pays no forwarding frame.
    send = _transmit

    def inject(self, packet: Any) -> None:
        """Offer a packet inserted by an adversary.

        Injected packets traverse the same loss/delay path as legitimate
        ones (the adversary is on-path, not omnipotent), but are flagged in
        traces and not re-recorded by taps that ignore injections.
        """
        self.injected += 1
        self._transmit(packet, True)

    # ------------------------------------------------------------------
    # Path dynamics
    # ------------------------------------------------------------------
    def _apply_regime(self, regime: Any) -> None:
        """Adopt a timeline/phase-like regime (duck-typed: ``delay``,
        ``loss``, ``up``, ``fifo`` attributes, ``None`` = inherit)."""
        self.delay = regime.delay if regime.delay is not None else self._base_delay
        self.loss = regime.loss if regime.loss is not None else self._base_loss
        self.fifo = regime.fifo if regime.fifo is not None else self._base_fifo
        self._path_up = regime.up

    @property
    def path_transitions(self) -> int:
        """Profile phase transitions taken so far (0 without a profile)."""
        return self._timeline.transitions if self._timeline is not None else 0

    def path_down(self) -> None:
        """A fault blackholes the path (nestable; see :meth:`path_up`)."""
        self._forced_down += 1
        self.trace("path_down", depth=self._forced_down)

    def path_up(self) -> None:
        """Undo one :meth:`path_down`; the path carries again at depth 0."""
        if self._forced_down > 0:
            self._forced_down -= 1
        self.trace("path_up", depth=self._forced_down)

    def shift_regime(self, phase: "PathPhase") -> None:
        """Switch the link's conditions to ``phase`` immediately.

        A profile transition scheduled later still overrides — a shift
        splices a regime into the timeline, it does not replace it.  The
        phase's models enter fresh (same clone semantics as a profile
        transition); its duration/jitter are ignored.
        """
        self.regime_shifts += 1
        self._apply_regime(_RegimeView(phase))
        self.trace("regime_shift", phase=phase.name)

    def _deliver(self, packet: Any, injected: bool) -> None:
        if self.availability is not None and not self.availability():
            self.undeliverable += 1
            if self.engine.trace.enabled:
                self.trace("unreachable", packet=repr(packet), injected=injected)
            if self.icmp_sink is not None:
                self.icmp_sink(
                    IcmpMessage(
                        icmp_type=IcmpType.DESTINATION_UNREACHABLE,
                        about=packet,
                        time=self.now,
                    )
                )
            return
        self.delivered += 1
        if self.engine.trace.enabled:
            self.trace("deliver", packet=repr(packet), injected=injected)
        self.sink(packet)
