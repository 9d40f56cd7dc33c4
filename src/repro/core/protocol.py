"""One-call wiring of a complete anti-replay simulation (main public API).

:func:`build_protocol` assembles engine + sender + link (+ optional
controlled-reorder stage, adversary, ESP/AH encapsulation) + receiver +
auditor into a :class:`ProtocolHarness`.  Experiments, examples and most
tests start here::

    from repro import build_protocol

    harness = build_protocol(protected=True, k_p=25, k_q=25, w=64)
    harness.sender.start_traffic(count=1000)
    harness.engine.call_at(0.002, harness.sender.reset, 0.001)
    harness.run(until=0.1)
    report = harness.score()
    assert report.converged
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.audit import DeliveryAuditor
from repro.core.ceiling import CeilingReceiver, CeilingSender
from repro.core.convergence import ConvergenceReport, score_run
from repro.core.persistent import PersistentStore
from repro.core.receiver import BaseReceiver, SaveFetchReceiver, UnprotectedReceiver
from repro.core.sender import BaseSender, SaveFetchSender, UnprotectedSender
from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.ipsec.sa import SaPair, make_sa_pair
from repro.net.adversary import ReplayAdversary
from repro.net.delay import DelayModel, FixedDelay
from repro.net.link import Link, PacketPipe
from repro.net.loss import LossModel, NoLoss
from repro.net.reorder import DegreeReorderStage
from repro.obs.hub import MetricsHub, default_hub
from repro.obs.probe import HealthProbe
from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL, Sampler
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only (no import cycle)
    from repro.netpath.profile import PathProfile


@dataclass
class ProtocolHarness:
    """Handles on every component of one wired-up simulation."""

    engine: Engine
    sender: BaseSender
    receiver: BaseReceiver
    link: Link
    auditor: DeliveryAuditor
    pipe: PacketPipe  # what the sender writes to (reorder stage or link)
    adversary: ReplayAdversary | None = None
    reorder_stage: DegreeReorderStage | None = None
    sa_pair: SaPair | None = None
    hub: MetricsHub | None = None
    probe: HealthProbe | None = None
    sampler: Sampler | None = None

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run the engine; returns events fired (see :meth:`Engine.run`)."""
        return self.engine.run(until=until, max_events=max_events)

    def score(self, check_bounds: bool = True) -> ConvergenceReport:
        """Score the run so far against the paper's guarantees."""
        return score_run(
            self.auditor, self.sender, self.receiver, check_bounds=check_bounds
        )


def build_protocol(
    protected: bool = True,
    k_p: int = 25,
    k_q: int = 25,
    w: int = 64,
    costs: CostModel = PAPER_COSTS,
    encap: str = "plain",
    seed: int = 0,
    delay: DelayModel | None = None,
    loss: LossModel | None = None,
    fifo_link: bool = True,
    with_adversary: bool = False,
    reorder_degree: int = 0,
    reorder_probability: float = 0.0,
    leap_factor: int = 2,
    skip_wake_save: bool = False,
    sender_name: str = "p",
    receiver_name: str = "q",
    variant: str | None = None,
    trace: TraceRecorder | None = None,
    engine: Engine | None = None,
    sender_store: PersistentStore | None = None,
    receiver_store: PersistentStore | None = None,
    path: "PathProfile | None" = None,
    sender_address: str | None = None,
    hub: MetricsHub | None = None,
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
) -> ProtocolHarness:
    """Build a ready-to-run p -> q anti-replay simulation.

    Args:
        protected: True for the Section 4 SAVE/FETCH protocol, False for
            the unprotected Section 2 baseline.
        variant: overrides ``protected`` when given: ``"savefetch"``,
            ``"unprotected"``, or ``"ceiling"`` (the write-ahead repair of
            :mod:`repro.core.ceiling`).
        k_p / k_q: SAVE intervals, positive ``int``s (ignored when
            ``protected`` is False).  Defaults are the paper's minimum
            safe interval, 25.
        w: receiver window size, a positive ``int``: the width of its
            :class:`~repro.ipsec.replay_window.BitmapReplayWindow`.
        costs: operation cost model (timing of sends, saves, fetches).
        encap: ``"plain"``, ``"esp"`` or ``"ah"``; non-plain modes create
            a real SA pair and enforce integrity.
        seed: master seed for link/adversary/key randomness.
        delay: link delay model (default zero-latency fixed).
        loss: link loss model (default lossless).
        fifo_link: force in-order delivery (the paper's reorder-free
            hypothesis); set False with a jitter delay model for natural
            reordering.
        with_adversary: attach a recording :class:`ReplayAdversary`.
        reorder_degree / reorder_probability: insert a controlled
            :class:`DegreeReorderStage` in front of the link.
        leap_factor / skip_wake_save: ablation switches (paper: 2 / False).
        sender_name / receiver_name: trace names.
        trace: the engine's trace recorder (default: a fresh recording
            :class:`TraceRecorder`).  Batch drivers that never read the
            trace pass :data:`repro.sim.trace.NULL_TRACE` so hot paths
            skip record construction entirely.  Ignored when ``engine``
            is given (the engine already owns its recorder).
        engine: an existing engine to build onto.  The default (None)
            creates a fresh engine per harness — one simulation, one
            pair.  Multiplexing drivers (:class:`repro.gateway.Gateway`)
            pass one shared engine so many pairs run under a single
            clock and event heap.
        sender_store / receiver_store: persistent stores for the
            protected endpoints.  Default (None) builds a private
            :class:`PersistentStore` per endpoint, as the paper assumes;
            a gateway passes clients of its
            :class:`~repro.gateway.SharedStore` so SAVE/FETCH contend
            for one device.  Ignored by the unprotected variant.
        path: optional :class:`~repro.netpath.PathProfile` making the
            link's conditions time-varying; phase models override
            ``delay``/``loss`` while active.  A static single-phase
            profile is byte-identical to the default fixed channel.
        sender_address: the sender's initial network binding, stamped
            on every packet's ``src`` (default None — address-less, the
            paper's model).  NAT scenarios set it so a
            :class:`~repro.faults.NatRebinding` has something to move.
        hub: the metrics hub to publish health signals under (default:
            the ambient :func:`repro.obs.default_hub`, which is
            :data:`~repro.obs.NULL_HUB` unless a driver installed one
            via :func:`repro.obs.use_hub`).  The zero-overhead-off
            invariant: ``hub.enabled`` is checked *once, here* — a
            disabled hub attaches no probe and no sampler, so the built
            simulation is object-for-object what it was before this
            parameter existed.
        sample_interval: the probe sampling period when the hub is
            enabled (simulated seconds).

    Returns:
        A :class:`ProtocolHarness` with every component exposed.

    Raises:
        TypeError: ``w``, or a ``k_p``/``k_q`` the variant uses, is not
            an ``int`` (``bool`` included); nothing is truncated.
        ValueError: one of them is ``<= 0``, or ``variant`` is unknown.
    """
    own_engine = engine is None
    if engine is None:
        engine = Engine(trace=trace)
    if hub is None:
        hub = default_hub()
    auditor = DeliveryAuditor()

    if variant is None:
        variant = "savefetch" if protected else "unprotected"
    if variant not in ("savefetch", "unprotected", "ceiling"):
        raise ValueError(f"unknown variant {variant!r}")

    sa_pair: SaPair | None = None
    sender_sa = receiver_sa = None
    if encap != "plain":
        sa_pair = make_sa_pair(sender_name, receiver_name, seed_or_rng=seed)
        sender_sa = receiver_sa = sa_pair.forward

    if variant == "savefetch":
        receiver: BaseReceiver = SaveFetchReceiver(
            engine,
            receiver_name,
            k=k_q,
            store=receiver_store,
            leap_factor=leap_factor,
            skip_wake_save=skip_wake_save,
            w=w,
            costs=costs,
            auditor=auditor,
            sa=receiver_sa,
            encap=encap,
        )
    elif variant == "ceiling":
        receiver = CeilingReceiver(
            engine,
            receiver_name,
            k=k_q,
            store=receiver_store,
            w=w,
            costs=costs,
            auditor=auditor,
            sa=receiver_sa,
            encap=encap,
        )
    else:
        receiver = UnprotectedReceiver(
            engine,
            receiver_name,
            w=w,
            costs=costs,
            auditor=auditor,
            sa=receiver_sa,
            encap=encap,
        )

    link = Link(
        engine,
        f"link:{sender_name}->{receiver_name}",
        sink=receiver.on_receive,
        delay=delay if delay is not None else FixedDelay(0.0),
        loss=loss if loss is not None else NoLoss(),
        seed=seed * 7919 + 1,
        fifo=fifo_link,
        path=path,
    )

    pipe: PacketPipe = link
    reorder_stage: DegreeReorderStage | None = None
    if reorder_degree > 0 and reorder_probability > 0:
        reorder_stage = DegreeReorderStage(
            downstream=link,
            degree=reorder_degree,
            probability=reorder_probability,
            seed=seed * 7919 + 2,
        )
        pipe = reorder_stage

    if variant == "savefetch":
        sender: BaseSender = SaveFetchSender(
            engine,
            sender_name,
            pipe,
            k=k_p,
            store=sender_store,
            leap_factor=leap_factor,
            skip_wake_save=skip_wake_save,
            costs=costs,
            auditor=auditor,
            sa=sender_sa,
            encap=encap,
            address=sender_address,
        )
    elif variant == "ceiling":
        sender = CeilingSender(
            engine,
            sender_name,
            pipe,
            k=k_p,
            store=sender_store,
            costs=costs,
            auditor=auditor,
            sa=sender_sa,
            encap=encap,
            address=sender_address,
        )
    else:
        sender = UnprotectedSender(
            engine,
            sender_name,
            pipe,
            costs=costs,
            auditor=auditor,
            sa=sender_sa,
            encap=encap,
            address=sender_address,
        )

    adversary: ReplayAdversary | None = None
    if with_adversary:
        adversary = ReplayAdversary(engine, link, seed=seed * 7919 + 3)

    # Observability: decided once at build time, never on the hot path.
    # A disabled hub attaches nothing — the harness is exactly the
    # pre-obs object graph and runs byte-identically.
    probe: HealthProbe | None = None
    sampler: Sampler | None = None
    if hub.enabled:
        probe = HealthProbe(hub, sender=sender, receiver=receiver, link=link)
        if own_engine:
            # A shared engine belongs to a multiplexing driver (the
            # gateway), which runs one sampler for all of its pairs.
            sampler = Sampler(engine, hub, interval=sample_interval)
            sampler.register(probe)
            sampler.start()

    return ProtocolHarness(
        engine=engine,
        sender=sender,
        receiver=receiver,
        link=link,
        auditor=auditor,
        pipe=pipe,
        adversary=adversary,
        reorder_stage=reorder_stage,
        sa_pair=sa_pair,
        hub=hub if hub.enabled else None,
        probe=probe,
        sampler=sampler,
    )
