"""Named end-to-end scenarios composed from the protocol harness.

Each scenario runs one complete fault story and returns one JSON-safe
metrics dict.  Harness-backed scenarios return the flattened
:class:`~repro.core.convergence.ConvergenceReport`
(:func:`~repro.core.convergence.report_metrics`) updated with
scenario-specific extras (reset-record details, adversary and path
counters, ...); the rest (rekey cost, DPD probing, SAVE-policy
comparison, gateways, ...) return their own metrics.  Faults and
replays are armed through :mod:`repro.faults`.  Most stories are a
topology, a traffic budget and a fault list handed to one runner,
:func:`_run_story`, which sizes the stream by one rule
(:func:`_sends`) and runs the engine until its queue is empty.  Only
scenarios whose periodic timers never drain (``dpd``,
``prolonged_reset``, ``save_policy``) or whose phases are timed
(``reset_notice``) run to a horizon.  The experiment sweeps in
:mod:`repro.experiments` reduce these over parameter grids; tests pin
individual cases.

All scenarios are deterministic given their arguments.  The module-level
:data:`SCENARIOS` registry maps stable names to the ``run_*`` callables so
that declarative drivers — the fleet campaign specs in :mod:`repro.fleet`
and the experiment sweeps in :mod:`repro.experiments.sweep` — can
reference every scenario by string.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.audit import DeliveryAuditor
from repro.core.baselines import RekeySimulation, savefetch_recovery_outcome
from repro.core.convergence import report_metrics
from repro.core.dpd import HeartbeatDpd, TrafficDpd
from repro.core.protocol import ProtocolHarness, build_protocol
from repro.core.recovery import (
    ProlongedResetSession,
    ResetNoticeReceiver,
    send_reset_notice,
)
from repro.core.sender import SaveFetchSender, UnprotectedSender
from repro.faults import (
    Fault,
    FaultEnv,
    GatewayCrash,
    NatRebinding,
    PathFlap,
    RegimeShift,
    Replay,
    Reset,
    RollingRestart,
    SAChurn,
)
from repro.gateway import Gateway, safe_save_interval
from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.ipsec.ike import IkeConfig, IkeInitiator, IkeResponder, SerialCompute
from repro.net.adversary import ReplayAdversary
from repro.net.delay import FixedDelay
from repro.net.link import Link
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.netpath import NatGate, PathPhase, PathProfile
from repro.sim.engine import Engine
from repro.sim.process import Timer
from repro.sim.trace import NULL_TRACE
from repro.util.rng import derive_seed
from repro.util.validation import check_non_negative_int, check_positive_int
from repro.workloads.traffic import BurstyTraffic


def _scored(
    harness: ProtocolHarness,
    extra: dict[str, Any] | None = None,
    check_bounds: bool = True,
) -> dict[str, Any]:
    """A harness scenario's result: its scored report, flattened, then
    the scenario's extras."""
    metrics = report_metrics(harness.score(check_bounds=check_bounds))
    if extra:
        metrics.update(extra)
    return metrics


def _sender_reset_extras(harness: ProtocolHarness) -> dict[str, Any]:
    """JSON-safe sender-side reset details (feeds E1/E3/E5/E6 reducers)."""
    store = getattr(harness.sender, "store", None)
    return {
        "sender_reset_records": [
            {
                "gap": record.gap,
                "lost_seqnums": record.lost_seqnums,
                "save_in_flight": record.save_in_flight,
                "last_used_seq": record.last_used_seq,
                "fetched": record.fetched,
                "resumed_seq": record.resumed_seq,
            }
            for record in harness.sender.reset_records
        ],
        "max_concurrent_saves": store.max_concurrent_saves if store else 0,
    }


def _receiver_reset_extras(harness: ProtocolHarness) -> dict[str, Any]:
    """JSON-safe receiver-side reset details (feeds E2/E4 reducers)."""
    return {
        "receiver_reset_records": [
            {
                "gap": record.gap,
                "save_in_flight": record.save_in_flight,
                "right_edge_at_reset": record.right_edge_at_reset,
                "fetched": record.fetched,
                "resumed_right_edge": record.resumed_right_edge,
            }
            for record in harness.receiver.reset_records
        ],
        "adversary_injections": (
            harness.adversary.injections if harness.adversary is not None else 0
        ),
    }


# ----------------------------------------------------------------------
# The fault-story runner: a topology, a traffic budget and a fault list
# ----------------------------------------------------------------------
def _gateway_recovery_slack(gateway: Gateway) -> float:
    """Extra quiet time the shared store's recovery queueing can add.

    Bounded by every SA paying one policy-priced FETCH plus one
    synchronous SAVE, serialized.  Zero for one SA, so the N=1 gateway
    crash keeps exactly the single-pair scenario's schedule (the
    golden-parity guarantee).
    """
    store = gateway.store
    return (len(gateway.sas) - 1) * (store.fetch_cost + store.save_cost)


def _sends(
    target: ProtocolHarness | Gateway,
    faults: list[Fault],
    attempts: int,
    k: int,
    costs: CostModel,
) -> int:
    """How many sends stream ``attempts`` messages through ``faults``.

    The sender's clock keeps its grid while the sender is down or
    recovering, and an attempt there is suppressed, not sent (the clock
    skips it and counts it at resume).  So each sender-side outage adds
    the attempts it can swallow:

    * a sender or both-sides :class:`Reset`: ``2 * (down_time + stagger)``;
    * a :class:`GatewayCrash`: ``2 * down_time + r``;
    * a :class:`RollingRestart`: ``(n_sas - 1) * stagger + 2 * down_time + r``;

    where ``r`` is :func:`_gateway_recovery_slack` and a gateway kind's
    ``down_time=None`` is ``2 * t_save``, as the fault reads it.  With
    any outage the stream is ``attempts + int(outage / t_send) + 10 * k``.

    Every other kind adds nothing: the sender keeps its clock through a
    receiver reset, a flap, a regime shift, a NAT rebinding, a replay or
    churn.  So exactly the messages lost to a receiver's downtime stay
    lost (they are "never arrived", outside claim (ii)'s scope), and a
    story with no traffic after its fault is quiet when its replay
    lands: the Section 3 attack conditions.
    """
    outages = []
    for fault in faults:
        if isinstance(fault, Reset) and fault.side != "receiver":
            outages.append(2 * (fault.down_time + fault.stagger))
        elif isinstance(fault, (GatewayCrash, RollingRestart)):
            down = 2 * costs.t_save if fault.down_time is None else fault.down_time
            outage = 2 * down
            if isinstance(fault, RollingRestart):
                outage = (len(target.sas) - 1) * fault.stagger + outage
            outages.append(outage + _gateway_recovery_slack(target))
    if not outages:
        return attempts
    return attempts + int(sum(outages) / costs.t_send) + 10 * k


def _run_story(
    target: ProtocolHarness | Gateway,
    faults: list[Fault],
    attempts: int,
    k: int,
    costs: CostModel,
) -> None:
    """Arm ``faults`` on a pair or a gateway in list order, stream
    :func:`_sends` messages, and run the engine until its queue is empty.

    Every such story drains, so no horizon can end a run mid-recovery;
    one that never drains trips the engine's ``hard_event_limit`` (a
    fleet task's event budget) instead of reporting a result.  A reorder
    stage's held packets are flushed once the queue is empty, then drain.
    """
    env = FaultEnv.of(target)
    for fault in faults:
        fault.apply(env)
    sends = _sends(target, faults, attempts, k, costs)
    if isinstance(target, Gateway):
        target.start_traffic(count=sends)
    else:
        target.sender.start_traffic(count=sends)
    target.engine.run()
    stage = getattr(target, "reorder_stage", None)
    if stage is not None:
        stage.flush()
        target.engine.run()


def run_sender_reset_scenario(
    protected: bool = True,
    k: int = 25,
    w: int = 64,
    reset_after_sends: int = 500,
    messages_after_reset: int = 500,
    down_time: float | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
    leap_factor: int = 2,
    skip_wake_save: bool = False,
    path: PathProfile | None = None,
) -> dict[str, Any]:
    """Claim (i) scenario: steady traffic, one sender reset, more traffic.

    The channel is in-order and lossless (the claim's hypothesis).  The
    reset lands immediately after the ``reset_after_sends``-th
    transmission; the sweep over that count is what traces Fig. 1, since
    it moves the reset across the SAVE cycle.  ``path`` attaches a
    :class:`~repro.netpath.PathProfile` to the channel; a static
    single-phase profile reproduces the default link byte-for-byte (the
    netpath golden-parity guarantee).
    """
    check_non_negative_int("messages_after_reset", messages_after_reset)
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=protected,
        k_p=k,
        k_q=k,
        w=w,
        costs=costs,
        seed=seed,
        leap_factor=leap_factor,
        skip_wake_save=skip_wake_save,
        path=path,
    )
    if down_time is None:
        down_time = 2 * costs.t_save
    _run_story(
        harness,
        [Reset(after_sends=reset_after_sends, down_time=down_time)],
        reset_after_sends + messages_after_reset, k, costs,
    )
    return _scored(harness, _sender_reset_extras(harness))


def run_receiver_reset_scenario(
    protected: bool = True,
    k: int = 25,
    w: int = 64,
    reset_after_receives: int = 500,
    messages_after_reset: int = 500,
    down_time: float | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
    leap_factor: int = 2,
    replay_history_after: bool = False,
) -> dict[str, Any]:
    """Claim (ii) scenario: steady traffic, one receiver reset.

    With ``replay_history_after`` the Section 3 adversary replays the
    entire recorded history right after the receiver wakes — accepted
    wholesale by the unprotected receiver, rejected entirely by the
    SAVE/FETCH one.
    """
    check_non_negative_int("messages_after_reset", messages_after_reset)
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=protected,
        k_p=k,
        k_q=k,
        w=w,
        costs=costs,
        seed=seed,
        leap_factor=leap_factor,
        with_adversary=True,
    )
    if down_time is None:
        down_time = 2 * costs.t_save
    faults: list[Fault] = [Reset(
        side="receiver", after_sends=reset_after_receives, down_time=down_time
    )]
    # Fire the replay as soon as the receiver is back up (its window is
    # at its most vulnerable then).
    if replay_history_after:
        faults.append(Replay(on_wake=True, rate=1.0 / costs.t_recv))
    _run_story(
        harness, faults, reset_after_receives + messages_after_reset, k, costs
    )
    return _scored(harness, _receiver_reset_extras(harness))


def run_dual_reset_scenario(
    protected: bool = True,
    k: int = 25,
    w: int = 64,
    reset_after_sends: int = 500,
    stagger: float = 0.0,
    messages_after_reset: int = 500,
    down_time: float | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
    window_jump_attack: bool = True,
) -> dict[str, Any]:
    """Section 5's third case: both p and q reset (optionally staggered).

    With ``window_jump_attack`` the adversary replays the
    highest-sequence recorded message right after q wakes — the Section 3
    attack that permanently desynchronises the unprotected pair by
    shifting q's right edge above p's restarted counter.
    """
    check_non_negative_int("messages_after_reset", messages_after_reset)
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=protected,
        k_p=k,
        k_q=k,
        w=w,
        costs=costs,
        seed=seed,
        with_adversary=True,
    )
    if down_time is None:
        down_time = 2 * costs.t_save
    faults: list[Fault] = [Reset(
        side="both", after_sends=reset_after_sends, down_time=down_time,
        stagger=stagger,
    )]
    if window_jump_attack:
        faults.append(Replay(on_wake=True, strategy="max"))
    _run_story(
        harness, faults, reset_after_sends + messages_after_reset, k, costs
    )
    return _scored(harness)


def run_loss_reset_scenario(
    protected: bool = True,
    k: int = 25,
    w: int = 64,
    loss_rate: float = 0.05,
    reset_after_sends: int = 500,
    messages_after_reset: int = 500,
    down_time: float | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """Mixed fault story: Bernoulli channel loss plus one sender reset.

    Outside the paper's lossless hypothesis, so the run is scored without
    the Section 5 bound checks (the claims are conditioned on "no message
    loss"); the report still carries the raw gap / discard / replay
    counts, which is what loss-robustness campaigns aggregate.
    """
    check_non_negative_int("messages_after_reset", messages_after_reset)
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=protected,
        k_p=k,
        k_q=k,
        w=w,
        costs=costs,
        seed=seed,
        loss=BernoulliLoss(loss_rate),
        with_adversary=True,
    )
    if down_time is None:
        down_time = 2 * costs.t_save
    _run_story(
        harness,
        [Reset(after_sends=reset_after_sends, down_time=down_time)],
        reset_after_sends + messages_after_reset, k, costs,
    )
    return _scored(harness, check_bounds=False)


# ----------------------------------------------------------------------
# Reorder (E10): w-Delivery under controlled reorder
# ----------------------------------------------------------------------
def run_reorder_scenario(
    protected: bool = True,
    w: int = 64,
    degree: int = 8,
    messages: int = 2000,
    probability: float = 0.05,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """Section 2 w-Delivery story: a reorder stage of fixed degree.

    Messages are held back with the given probability and released
    ``degree`` positions late; ``degree < w`` must be delivered, while
    ``degree >= w`` falls off the window's left edge and is discarded
    despite being fresh (the reference-[2] observation E10 sweeps).
    A story with no reorder stage is refused: ``degree`` must be a
    positive ``int`` and ``probability`` in (0, 1].
    """
    check_non_negative_int("messages", messages)
    check_positive_int("degree", degree)
    if not 0.0 < probability <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {probability!r}")
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=protected,
        w=w,
        costs=costs,
        seed=seed,
        reorder_degree=degree,
        reorder_probability=probability,
    )
    _run_story(harness, [], messages, k=0, costs=costs)  # no fault, no slack
    stage = harness.reorder_stage  # built: degree and probability are > 0
    return _scored(
        harness, {"reordered": stage.held_total},  # type: ignore[union-attr]
        check_bounds=False,
    )


# ----------------------------------------------------------------------
# Rekey baseline (E7): IETF full renegotiation vs SAVE/FETCH recovery
# ----------------------------------------------------------------------
def run_rekey_scenario(
    n_sas: int = 1,
    rtt: float = 0.001,
    detection_delay: float = 0.0,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """Measure both reset-recovery paths for one (SA count, RTT) point.

    The rekey side simulates every ISAKMP message of the simplified
    main+quick handshake over a latency link; the SAVE/FETCH side is one
    FETCH plus one synchronous SAVE per SA, no network at all.
    """
    rekey = RekeySimulation(
        n_sas=n_sas,
        rtt=rtt,
        detection_delay=detection_delay,
        costs=costs,
        seed=seed,
    ).run()
    savefetch = savefetch_recovery_outcome(n_sas=n_sas, costs=costs)
    return {
        "rekey_time_s": rekey.total_recovery_time,
        "rekey_messages": rekey.messages_exchanged,
        "savefetch_time_s": savefetch.recovery_time,
    }


# ----------------------------------------------------------------------
# Staggered dual reset (E8): the model-checker's vulnerable window
# ----------------------------------------------------------------------
def run_staggered_reset_scenario(
    variant: str = "savefetch",
    k_p: int = 100,
    k_q: int = 25,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """The staggered-reset replay attack against one receiver variant.

    p resets and leaps by ``2Kp``; the first post-leap message jumps q's
    right edge by more than ``Kq``; q is then reset halfway through the
    checkpoint of that jump, and the adversary replays the exposed range
    the instant q wakes.  Requires ``k_p > k_q`` for the hole to open;
    the ``ceiling`` variant closes it.
    """
    harness = build_protocol(
        trace=NULL_TRACE,
        variant=variant,
        k_p=k_p,
        k_q=k_q,
        costs=costs,
        seed=seed,
        with_adversary=True,
    )
    down = 5 * costs.t_save
    env = FaultEnv.of(harness)
    # Reset p right after it has sent 2 * k_p messages.
    Reset(after_sends=2 * k_p, down_time=down).apply(env)
    # q checkpoints every k_q receives; the (2*k_p/k_q + 1)-th save is the
    # one triggered by the first post-leap jump message.  Strike q halfway
    # through it.
    if getattr(harness.receiver, "store", None) is not None:
        Reset(
            side="receiver", during_save=(2 * k_p) // k_q + 1, fraction=0.5,
            down_time=down,
        ).apply(env)
    # The winning adversary strategy: the instant q is back up, replay the
    # *most recently* recorded messages (a plain replay-newest-first
    # policy) so they land before fresh traffic re-advances the window.
    # Messages delivered above q's resumed right edge are the prize.
    Replay(on_wake=True, strategy="exposed", rate=1e9).apply(env)

    # Low-rate traffic (inter-send gap well above the outage + recovery
    # time): at line rate, fresh messages buffered during q's post-wake
    # SAVE drain first and push the window past the vulnerable range
    # before any replay can land — the hole only opens when the channel
    # is quiet at wake-up, as it is on a lightly loaded SA.
    harness.sender.start_traffic(count=2 * k_p + k_p // 2, interval=4 * down)
    harness.run()
    report = harness.score(check_bounds=False)
    return {
        "replays_accepted": report.replays_accepted,
        "fresh_discarded": report.fresh_discarded,
        "q_resets": len(harness.receiver.reset_records),
    }


# ----------------------------------------------------------------------
# Prolonged reset (E9): keep-alive + secured resync over a dual SA
# ----------------------------------------------------------------------
def run_prolonged_reset_scenario(
    outage: float = 0.2,
    keep_alive_timeout: float = 1.0,
    k: int = 25,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """Section 6 recovery story for one outage duration.

    The live host learns of the outage from ICMP, holds its SAs for the
    keep-alive period, and accepts the reset host's secured resync
    announcement; a replay adversary injects recorded b->a traffic into
    the live host midway through the outage.
    """
    session = ProlongedResetSession(
        k=k,
        costs=costs,
        keep_alive_timeout=keep_alive_timeout,
        seed=seed,
        with_adversary=True,
        trace=NULL_TRACE,
    )
    session.start_traffic()
    warmup = 0.02
    reset_at = warmup
    session.engine.call_at(reset_at, session.host_b.reset_host, outage)

    # The adversary replays recorded b->a traffic into the live host
    # midway through the outage (b cannot answer for itself then).
    Replay(at=reset_at + outage / 2, rate=1000.0).apply(
        FaultEnv(session.engine, adversary=session.adversary)
    )

    session.run(until=reset_at + outage + keep_alive_timeout + 0.5)
    session.stop_traffic()
    session.run(until=reset_at + outage + keep_alive_timeout + 1.0)

    report = session.report()
    a = report.host_a
    detected = a.peer_down_detected_at is not None
    resumed = a.peer_back_up_at is not None
    recovery = (
        a.peer_back_up_at - reset_at if a.peer_back_up_at is not None else -1.0
    )
    return {
        "detected": detected,
        "keepalive_expired": a.keepalive_expired,
        "resync_accepted": resumed,
        "resync_seq": a.resync_seq,
        "recovery_s": recovery,
        "replays_injected": report.replayed_into_live_host,
        "replays_accepted": report.replays_accepted_total,
    }


# ----------------------------------------------------------------------
# Recovery-design ablation (E11): the 2K leap and the synchronous wake SAVE
# ----------------------------------------------------------------------
def run_recovery_ablation_scenario(
    leap_factor: int = 2,
    skip_wake_save: bool = False,
    double_reset: bool = False,
    k: int = 25,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """One cell of the Section 4 design ablation (see E11).

    The first reset strikes inside the second background save; under
    ``double_reset`` a second reset strikes inside the synchronous wake
    save of the first recovery (or, when that save is skipped, right
    after the first messages of the resumed stream).
    """
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=True,
        k_p=2 * k,  # save spans half the interval: both Fig. 1 cases live
        k_q=2 * k,
        costs=costs,
        seed=seed,
        leap_factor=leap_factor,
        skip_wake_save=skip_wake_save,
    )
    down = costs.t_save  # wake quickly so recovery overlaps traffic
    env = FaultEnv.of(harness)

    # First reset: strike inside the second background save.
    Reset(during_save=2, fraction=0.5, down_time=down).apply(env)
    if double_reset and not skip_wake_save:
        # Second reset: strike inside the *synchronous wake save* of the
        # first recovery (the 3rd SAVE start).
        Reset(during_save=3, fraction=0.5, down_time=down).apply(env)
    elif double_reset:
        # With that save skipped, strike once the first messages of the
        # resumed stream are out, so there is something to reuse.
        struck = False

        def strike_after_first_wake() -> None:
            nonlocal struck
            if not struck:
                struck = True
                harness.engine.call_later(
                    5 * costs.t_send, harness.sender.reset, down
                )

        harness.sender.add_resume_listener(strike_after_first_wake)

    # Exactly 20 * k attempts, suppressed ones included: the stream rule
    # would add slack for these sender resets and move the E11 cells.
    harness.sender.start_traffic(count=20 * k)
    harness.run()
    report = harness.score(check_bounds=False)
    reuse = sum(
        1
        for record in harness.sender.reset_records
        if record.lost_seqnums is not None and record.lost_seqnums < 0
    )
    min_lost = min(
        (
            record.lost_seqnums
            for record in harness.sender.reset_records
            if record.lost_seqnums is not None
        ),
        default=0,
    )
    return {
        "resets": len(harness.sender.reset_records),
        "reuse_events": reuse,
        "min_lost": min_lost,
        "replays_accepted": report.replays_accepted,
        "safe": reuse == 0 and report.replays_accepted == 0,
    }


# ----------------------------------------------------------------------
# Reset-notice strawman (E12): the replayable "I was reset" message
# ----------------------------------------------------------------------
def run_reset_notice_scenario(
    pre_reset_messages: int = 500,
    post_reset_messages: int = 200,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """Section 6's rejected strawman, run through the paper's attack.

    Phase 1: traffic, a genuine sender reset announced with a
    ``ResetNotice`` the receiver honours (recovery appears to work).
    Phase 2: the adversary replays the recorded notice — the receiver
    obediently reopens its window — then replays the recorded history,
    accepted wholesale.
    """
    engine = Engine(trace=NULL_TRACE)
    auditor = DeliveryAuditor()
    receiver = ResetNoticeReceiver(engine, "q", auditor=auditor, costs=costs)
    link = Link(engine, "link:p->q", sink=receiver.on_receive, fifo=True, seed=seed)
    sender = UnprotectedSender(engine, "p", link, costs=costs, auditor=auditor)
    adversary = ReplayAdversary(engine, link, seed=seed + 1)

    # Phase 1: traffic, then a genuine sender reset announced by notice.
    sender.start_traffic(count=pre_reset_messages)
    engine.run(until=(pre_reset_messages + 5) * costs.t_send)

    sender.reset(down_for=costs.t_save)

    def announce() -> None:
        send_reset_notice("p", link, engine.now)

    sender.add_resume_listener(announce)
    engine.run(until=engine.now + 10 * costs.t_save)

    # Post-recovery traffic works: the receiver honoured the real notice.
    sender.start_traffic(count=post_reset_messages)
    engine.run(until=engine.now + (post_reset_messages + 5) * costs.t_send)
    delivered_after_recovery = receiver.delivered_total
    notices_after_phase1 = receiver.notices_honoured

    # Phase 2: the attack.  Replay the notice, then the whole history.
    notice_packets = [
        packet
        for packet in adversary.recorded
        if type(packet).__name__ == "ResetNotice"
    ]
    for notice in notice_packets:
        adversary.inject_now(notice)
    engine.run(until=engine.now + 10 * costs.t_recv)
    adversary.replay_history(rate=1.0 / costs.t_recv)
    engine.run(until=engine.now + 4 * (pre_reset_messages + post_reset_messages) * costs.t_recv)

    report = auditor.report()
    return {
        "notices_honoured": receiver.notices_honoured,
        "genuine_notice_worked": delivered_after_recovery > pre_reset_messages
        and notices_after_phase1 == 1,
        "replays_accepted": report.duplicate_deliveries,
    }


# ----------------------------------------------------------------------
# Dead-peer detection (E13): detection time vs probing parameters
# ----------------------------------------------------------------------
class _DpdPeer:
    """Answers probes (after half an RTT) until reset."""

    def __init__(self, engine: Engine, rtt: float) -> None:
        self.engine = engine
        self.rtt = rtt
        self.up = True
        self.reply_to = None

    def on_probe(self, token: int) -> None:
        if self.up and self.reply_to is not None:
            self.engine.call_later(self.rtt / 2, self.reply_to, token)


def run_dpd_scenario(
    mechanism: str = "heartbeat",
    cadence: float = 0.5,
    rtt: float = 0.01,
    reset_at: float = 1.0,
    seed: int = 0,
) -> dict[str, Any]:
    """Measure dead-peer detection time for one probing configuration.

    ``mechanism`` is ``"heartbeat"`` (fixed-interval probing) or
    ``"traffic"`` (probe only after a silence threshold).  ``detection_s``
    is ``None`` when the peer death was never detected (the undetected
    case has no finite detection time, and ``None`` stays JSON-safe).
    The ``seed`` argument is accepted for registry uniformity; the
    simulation is fully deterministic without it.
    """
    if mechanism not in ("heartbeat", "traffic"):
        raise ValueError(
            f"unknown DPD mechanism {mechanism!r}; "
            "expected 'heartbeat' or 'traffic'"
        )
    engine = Engine(trace=NULL_TRACE)
    peer = _DpdPeer(engine, rtt)
    dead_at: list[float] = []

    def send_probe(token: int) -> None:
        engine.call_later(rtt / 2, peer.on_probe, token)

    if mechanism == "heartbeat":
        dpd = HeartbeatDpd(
            engine, "dpd", send_probe, lambda: dead_at.append(engine.now),
            interval=cadence, timeout=4 * rtt, max_misses=3,
        )
        peer.reply_to = dpd.on_probe_ack
        dpd.start()
        chatter = None
    else:
        dpd = TrafficDpd(
            engine, "dpd", send_probe, lambda: dead_at.append(engine.now),
            idle_threshold=cadence, timeout=4 * rtt, max_misses=3,
        )
        peer.reply_to = dpd.on_probe_ack

        def chat() -> None:
            dpd.note_sent()
            if peer.up:
                engine.call_later(rtt / 2, dpd.note_received)

        chatter = Timer(engine, cadence / 4, chat)
        chatter.start()
        dpd.start()

    probes_before = {"n": 0}

    def mark_reset() -> None:
        peer.up = False
        probes_before["n"] = dpd.probes_sent

    engine.call_at(reset_at, mark_reset)
    engine.run(until=reset_at + 80 * cadence)
    dpd.stop()
    if chatter is not None:
        chatter.stop()
    return {
        "detection_s": dead_at[0] - reset_at if dead_at else None,
        "probes_while_healthy": probes_before["n"],
        "detected": bool(dead_at),
    }


# ----------------------------------------------------------------------
# SAVE-policy comparison (E6b): count-based vs time-based SAVEs
# ----------------------------------------------------------------------
class _TimerSaveSender(SaveFetchSender):
    """Ablation sender: SAVEs on a wall-clock timer, not a message count.

    The timer period equals ``k * t_send`` — the cadence the count-based
    policy exhibits at full line rate — so the two policies are identical
    under CBR and differ exactly where the paper predicts: idle periods.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.wasteful_saves = 0
        self._last_saved_value = self.lst
        period = self.k * self.costs.t_send
        self._save_timer = Timer(self.engine, period, self._timer_save)
        self._save_timer.start()

    def _after_send(self) -> None:  # disable the count-based trigger
        return

    def _timer_save(self) -> None:
        if not self.is_up:
            return
        advance = self.s - self._last_saved_value
        if advance < self.k:
            self.wasteful_saves += 1
        self._last_saved_value = self.s
        self.lst = self.s
        self.store.begin_save(self.s)


def run_save_policy_scenario(
    k: int = 25,
    bursts: int = 40,
    burst_len: int = 50,
    idle_time: float | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """Drive both SAVE policies with identical bursty traffic; count saves.

    ``waste_fraction`` is the share of timer-policy saves that were
    wasteful.  The ``seed`` argument is accepted for registry
    uniformity; both policy runs are fully deterministic without it.
    """
    if idle_time is None:
        idle_time = 20 * k * costs.t_send  # idle dwarfs the burst
    total = bursts * burst_len

    def run_one(use_timer: bool) -> SaveFetchSender:
        engine = Engine(trace=NULL_TRACE)
        sink_count = [0]

        link = Link(engine, "link", sink=lambda packet: sink_count.__setitem__(0, sink_count[0] + 1))
        cls = _TimerSaveSender if use_timer else SaveFetchSender
        sender = cls(engine, "p", link, k=k, costs=costs)
        traffic = BurstyTraffic(
            engine,
            sender,
            burst_len=burst_len,
            burst_interval=costs.t_send,
            idle_time=idle_time,
        )
        traffic.start(count=total)
        # Horizon covers exactly the traffic window (plus a short drain)
        # so the timer policy is not additionally penalised for a long
        # quiet tail after the workload ends.
        horizon = bursts * (burst_len * costs.t_send + idle_time) + 50 * costs.t_save
        engine.run(until=horizon)
        if use_timer:
            sender._save_timer.stop()  # let later engine use drain cleanly
        return sender

    count_sender = run_one(use_timer=False)
    timer_sender = run_one(use_timer=True)
    time_based_saves = timer_sender.store.saves_started
    wasteful = timer_sender.wasteful_saves
    return {
        "k": k,
        "messages_sent": count_sender.sent_total,
        "count_based_saves": count_sender.store.saves_started,
        "time_based_saves": time_based_saves,
        "time_based_wasteful": wasteful,
        "waste_fraction": wasteful / time_based_saves if time_based_saves else 0.0,
    }


# ----------------------------------------------------------------------
# Loss hole (E14): replay exposure under bursty loss
# ----------------------------------------------------------------------
def run_loss_hole_scenario(
    variant: str = "savefetch",
    burst_g2b: float = 0.02,
    k: int = 25,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """One run of the loss-hole exposure experiment (see E14).

    Gilbert-Elliott bursty loss of the given severity; the fault injector
    strikes the receiver inside the first checkpoint save whose value
    leapt more than ``2Kq`` past the committed value (the vulnerable
    window), and the adversary replays the exposed range at wake-up.
    """
    loss = (
        NoLoss()
        if burst_g2b == 0.0
        else GilbertElliottLoss(
            p_good_to_bad=burst_g2b, p_bad_to_good=0.015, loss_bad=1.0
        )
    )
    harness = build_protocol(
        trace=NULL_TRACE,
        variant=variant,
        k_p=k,
        k_q=k,
        costs=costs,
        seed=seed,
        loss=loss,
        with_adversary=True,
    )
    down = 5 * costs.t_save
    store = harness.receiver.store  # both variants have one
    state = {"armed": True, "fired": False}

    def on_save(record) -> None:
        # React to *starts* of background saves whose value leapt more
        # than 2Kq past the committed checkpoint: the vulnerable window.
        if record.committed or record.aborted or record.synchronous:
            return
        if state["armed"] and record.value - store.committed_value > 2 * k:
            state["armed"] = False
            state["fired"] = True
            harness.engine.call_later(
                0.5 * store.t_save, harness.receiver.reset, down
            )

    store.add_listener(on_save)

    env = FaultEnv.of(harness)
    Replay(on_wake=True, strategy="exposed", rate=1e9).apply(env)
    Replay(on_wake=True, strategy="max").apply(env)

    # Low-rate traffic: the vulnerable regime (E8).
    harness.sender.start_traffic(count=16 * k, interval=4 * down)
    harness.run()
    return {
        "vulnerable_window": state["fired"],
        "replays_accepted": harness.score(check_bounds=False).replays_accepted,
    }


# ----------------------------------------------------------------------
# Gateway scenarios (E15): correlated resets over a shared store
# ----------------------------------------------------------------------
def _trigger_sends(fault: Fault, costs: CostModel, sends: int) -> int:
    """The sends by which a gateway fault has fired: its own
    ``after_sends``, or for a time trigger at least ``sends`` and one
    past its instant, so the stream still runs when a late override
    fires."""
    if fault.after_sends is not None:
        return fault.after_sends
    if fault.at is not None:
        return max(sends, int(fault.at / costs.t_send) + 1)
    return sends


def run_gateway_crash_scenario(
    n_sas: int = 4,
    side: str = "sender",
    protected: bool = True,
    k: int | None = None,
    w: int = 64,
    store_policy: str = "serial",
    crash_after_sends: int = 500,
    messages_after_reset: int = 500,
    down_time: float | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
    fault: Fault | None = None,
    path: PathProfile | None = None,
    store_load_factor: float = 0.0,
) -> dict[str, Any]:
    """One gateway crash: every SA resets at one instant, recovery storms.

    The per-SA story is exactly :func:`run_sender_reset_scenario` (same
    trigger, stream-sizing rule and run to drain — with ``n_sas=1`` the
    flattened per-SA report is bit-identical); the gateway story is what
    N adds: the shared store serializes the wake-up FETCH storm, so the
    ``recovery_spreads`` metric grows with N and shrinks under the
    batched/write-ahead policies.

    ``k=None`` applies the gateway sizing rule
    (:func:`repro.gateway.safe_save_interval`) — the paper's 25 scaled
    to the shared device; pin ``k=25`` at ``n_sas > 1`` under the serial
    policy to watch the under-provisioned store break the 2K gap bound.
    ``fault`` overrides the built-in :class:`~repro.faults.GatewayCrash`
    (e.g. an absolute-time trigger from a JSON campaign spec); it
    carries its own ``down_time``, so giving both is a ``ValueError``.
    ``path`` attaches a :class:`~repro.netpath.PathProfile` to every
    SA's link; ``store_load_factor`` turns on the shared store's
    load-dependent SAVE duration (see :class:`~repro.gateway.SharedStore`).
    """
    if fault is not None and down_time is not None:
        raise ValueError("gateway_crash: the fault override carries its own down_time")
    check_non_negative_int("messages_after_reset", messages_after_reset)
    if k is None:
        k = safe_save_interval(n_sas, costs, store_policy)
    gateway = Gateway(
        n_sas=n_sas,
        side=side,
        protected=protected,
        k=k,
        w=w,
        costs=costs,
        store_policy=store_policy,
        seed=seed,
        path=path,
        store_load_factor=store_load_factor,
    )
    if fault is None:
        fault = GatewayCrash(after_sends=crash_after_sends, down_time=down_time)
    attempts = _trigger_sends(fault, costs, crash_after_sends) + messages_after_reset
    _run_story(gateway, [fault], attempts, k, costs)
    return gateway.score().metrics()


def run_rolling_restart_scenario(
    n_sas: int = 4,
    side: str = "sender",
    k: int | None = None,
    w: int = 64,
    store_policy: str = "serial",
    restart_after_sends: int = 500,
    stagger: float | None = None,
    messages_after_reset: int = 500,
    down_time: float | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
    fault: Fault | None = None,
) -> dict[str, Any]:
    """A restart wave: SA ``i`` resets ``i * stagger`` after the trigger.

    The store stays up, so each recovering SA's FETCH and synchronous
    SAVE contend with the *live* SAs' background saves instead of with a
    storm of other recoveries — the operator's alternative to a cold
    crash, and measurably gentler on the recovery spread.  ``k=None``
    applies the gateway sizing rule (see
    :func:`repro.gateway.safe_save_interval`).  A ``fault`` override
    carries its own ``down_time`` and ``stagger``; giving either beside
    it is a ``ValueError``.
    """
    if fault is not None and (down_time is not None or stagger is not None):
        raise ValueError(
            "rolling_restart: the fault override carries its own down_time and stagger"
        )
    check_non_negative_int("messages_after_reset", messages_after_reset)
    if k is None:
        k = safe_save_interval(n_sas, costs, store_policy)
    gateway = Gateway(
        n_sas=n_sas,
        side=side,
        protected=True,
        k=k,
        w=w,
        costs=costs,
        store_policy=store_policy,
        seed=seed,
    )
    if fault is None:
        if down_time is None:
            down_time = 2 * costs.t_save
        if stagger is None:
            stagger = 2 * down_time
        fault = RollingRestart(
            after_sends=restart_after_sends, stagger=stagger, down_time=down_time
        )
    attempts = _trigger_sends(fault, costs, restart_after_sends) + messages_after_reset
    _run_story(gateway, [fault], attempts, k, costs)
    return gateway.score().metrics()


def run_sa_churn_scenario(
    n_sas: int = 4,
    side: str = "sender",
    k: int | None = None,
    w: int = 64,
    store_policy: str = "serial",
    messages: int = 600,
    churn_cycles: int = 3,
    churn_interval: float | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
    fault: Fault | None = None,
) -> dict[str, Any]:
    """SA churn: tunnels are torn down and established mid-run.

    No resets — the question is whether multiplexing is clean: every SA
    (retired ones included) must converge with zero replays while
    creation/teardown reshuffles the shared store's save schedule.
    ``k=None`` sizes for the peak live SA count (initial plus one
    mid-churn overlap).  A ``fault`` override carries its own
    ``interval``; giving ``churn_interval`` beside it is a ``ValueError``.
    """
    if fault is not None and churn_interval is not None:
        raise ValueError("sa_churn: the fault override carries its own interval")
    check_non_negative_int("messages", messages)
    if k is None:
        k = safe_save_interval(n_sas + 1, costs, store_policy)
    gateway = Gateway(
        n_sas=n_sas,
        side=side,
        protected=True,
        k=k,
        w=w,
        costs=costs,
        store_policy=store_policy,
        seed=seed,
    )
    if fault is None:
        stream_time = messages * costs.t_send
        if churn_interval is None:
            # All cycles land inside the middle half of the initial streams.
            churn_interval = stream_time / (2 * max(1, churn_cycles))
        fault = SAChurn(
            at=stream_time / 4,
            interval=churn_interval,
            cycles=churn_cycles,
            messages=messages,
        )
    _run_story(gateway, [fault], messages, k, costs)
    return gateway.score().metrics()


# ----------------------------------------------------------------------
# Netpath scenarios (E16): time-varying paths under the protocol
# ----------------------------------------------------------------------
def _netpath_extras(harness: ProtocolHarness, gate: NatGate | None = None) -> dict[str, Any]:
    """JSON-safe path/NAT counters every netpath scenario reports."""
    extras: dict[str, Any] = {
        "blackholed": harness.link.blackholed,
        "path_transitions": harness.link.path_transitions,
        "regime_shifts": harness.link.regime_shifts,
        "adversary_injections": (
            harness.adversary.injections if harness.adversary is not None else 0
        ),
    }
    if gate is not None:
        extras["nat"] = gate.metrics()
    return extras


def _schedule_reset(
    reset_schedule: str, during_at: float, after_at: float, down_time: float
) -> list[Fault]:
    """The E16 reset-schedule axis as a fault list: no sender reset, one
    *during* the path impairment, or one safely *after* it settles."""
    if reset_schedule not in ("none", "during", "after"):
        raise ValueError(
            f"unknown reset_schedule {reset_schedule!r}; "
            "expected 'none', 'during' or 'after'"
        )
    if reset_schedule == "none":
        return []
    at = during_at if reset_schedule == "during" else after_at
    return [Reset(at=at, down_time=down_time)]


def run_nat_rebinding_scenario(
    protected: bool = True,
    k: int = 25,
    w: int = 64,
    rebind_after_sends: int = 500,
    messages_after_rebind: int = 500,
    policy: str = "rebind_on_valid",
    replay_old_binding: bool = True,
    reset_schedule: str = "none",
    path: PathProfile | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """The peer's NAT mapping changes mid-SA; the receiver's policy decides.

    The sender starts bound to ``nat:a``; after ``rebind_after_sends``
    transmissions the NAT rebinds it to ``nat:b``, so later packets
    carry the new source while everything recorded earlier keeps the old
    one.  ``policy`` is one of :data:`repro.netpath.nat.REBIND_POLICIES`:
    ``rebind_on_valid`` moves the binding on the first window-valid
    packet and converges cleanly; ``strict`` pins the tunnel and drops
    the entire post-rebinding stream at the gate (counted, not scored as
    discards — the messages never reach the window); ``static`` ignores
    addresses.  With ``replay_old_binding`` the Section 3 adversary
    replays the recorded (old-binding) history right after the rebinding
    — the anti-replay window, not the address check, must reject it.

    ``reset_schedule`` overlays the E16 reset axis: a sender reset
    landing at the rebinding instant (``"during"``) or well after the
    binding settled (``"after"``).
    """
    check_non_negative_int("messages_after_rebind", messages_after_rebind)
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=protected,
        k_p=k,
        k_q=k,
        w=w,
        costs=costs,
        seed=seed,
        with_adversary=True,
        path=path,
        sender_address="nat:a",
    )
    gate = NatGate(harness.receiver, policy=policy, initial_binding="nat:a")
    harness.link.sink = gate.on_receive
    faults: list[Fault] = [
        NatRebinding(after_sends=rebind_after_sends, new_address="nat:b")
    ]
    if replay_old_binding:
        # Strike right after the first new-binding packet: the receiver
        # has just (maybe) rebound and the recorded history is entirely
        # old-binding traffic.
        faults.append(Replay(
            after_sends=rebind_after_sends + 1, rate=1.0 / costs.t_recv
        ))
    faults += _schedule_reset(
        reset_schedule,
        during_at=rebind_after_sends * costs.t_send,
        after_at=(rebind_after_sends + messages_after_rebind // 2) * costs.t_send,
        down_time=2 * costs.t_save,
    )
    _run_story(
        harness, faults, rebind_after_sends + messages_after_rebind, k, costs
    )
    return _scored(harness, _netpath_extras(harness, gate))


def run_path_flap_scenario(
    protected: bool = True,
    k: int = 25,
    w: int = 64,
    messages: int = 1000,
    flap_after_sends: int = 300,
    down_time: float | None = None,
    up_time: float | None = None,
    cycles: int = 3,
    reset_schedule: str = "none",
    path: PathProfile | None = None,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """A flapping route: repeated blackhole windows under steady traffic.

    Packets offered inside a window vanish without ICMP (scored as
    ``never_arrived`` — this is channel loss, outside the claims'
    lossless hypothesis, so bounds are not checked).  The interesting
    interaction is ``reset_schedule="during"``: the sender reset lands
    inside a blackhole window, so its recovery runs while the path is
    still dark and the first post-leap messages may fall into the next
    window.
    """
    check_non_negative_int("messages", messages)
    if down_time is None:
        down_time = 2 * costs.t_save
    if up_time is None:
        up_time = down_time
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=protected,
        k_p=k,
        k_q=k,
        w=w,
        costs=costs,
        seed=seed,
        path=path,
    )
    flap_at = (flap_after_sends + 0.5) * costs.t_send
    faults: list[Fault] = [PathFlap(
        at=flap_at, down_time=down_time, up_time=up_time, cycles=cycles
    )]
    flap_ends_at = flap_at + (cycles - 1) * (down_time + up_time) + down_time
    faults += _schedule_reset(
        reset_schedule,
        during_at=flap_at + down_time / 2,  # inside the first window
        after_at=flap_ends_at + 2 * costs.t_save,
        down_time=2 * costs.t_save,
    )
    _run_story(harness, faults, messages, k, costs)
    return _scored(harness, _netpath_extras(harness), check_bounds=False)


def run_mobile_handover_scenario(
    protected: bool = True,
    k: int = 25,
    w: int = 64,
    handover_after_sends: int = 400,
    messages_after_handover: int = 400,
    outage: float | None = None,
    policy: str = "rebind_on_valid",
    replay_old_binding: bool = True,
    degraded_delay: float = 0.0002,
    degraded_loss: float = 0.01,
    reset_schedule: str = "none",
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """A mobile peer hands over networks mid-SA: outage + new regime + NAT.

    At the handover instant three things happen at once, which is what
    distinguishes it from each fault alone: the path blackholes for
    ``outage`` seconds (association gap), the regime shifts to the
    visited network's conditions (``degraded_delay``/``degraded_loss``),
    and the peer's source address changes (``nat:home`` ->
    ``nat:visited``).  The adversary replays the recorded home-network
    history right after the gap — a window that must stay closed however
    the addresses moved.  ``reset_schedule="during"`` lands a sender
    reset inside the handover gap: recovery and rebinding interleave.
    """
    check_non_negative_int("messages_after_handover", messages_after_handover)
    if outage is None:
        outage = 2 * costs.t_save
    harness = build_protocol(
        trace=NULL_TRACE,
        protected=protected,
        k_p=k,
        k_q=k,
        w=w,
        costs=costs,
        seed=seed,
        with_adversary=True,
        sender_address="nat:home",
    )
    gate = NatGate(harness.receiver, policy=policy, initial_binding="nat:home")
    harness.link.sink = gate.on_receive
    visited = PathPhase(
        name="visited",
        delay=FixedDelay(degraded_delay),
        loss=BernoulliLoss(degraded_loss) if degraded_loss > 0 else None,
    )

    faults: list[Fault] = [
        PathFlap(after_sends=handover_after_sends, down_time=outage),
        RegimeShift(after_sends=handover_after_sends, phase=visited),
        NatRebinding(after_sends=handover_after_sends, new_address="nat:visited"),
    ]
    if replay_old_binding:
        # Right after the first visited-network packet leaves.
        faults.append(Replay(
            after_sends=handover_after_sends + 1, rate=1.0 / costs.t_recv
        ))
    handover_at = handover_after_sends * costs.t_send
    faults += _schedule_reset(
        reset_schedule,
        during_at=handover_at + outage / 2,
        after_at=handover_at + outage + (messages_after_handover // 2) * costs.t_send,
        down_time=2 * costs.t_save,
    )
    env = FaultEnv.of(harness)
    for fault in faults:
        fault.apply(env)

    # Its own stream count: unlike a path flap, the handover gap is
    # paid for in sends even with no reset.
    total_attempts = handover_after_sends + messages_after_handover
    slack = int(2 * outage / costs.t_send) + (10 * k if reset_schedule != "none" else 0)
    harness.sender.start_traffic(count=total_attempts + slack)
    harness.run()
    return _scored(harness, _netpath_extras(harness, gate), check_bounds=False)


# ----------------------------------------------------------------------
# Rekey storm: N concurrent IKE renegotiations contending for one CPU
# ----------------------------------------------------------------------
def run_rekey_storm_scenario(
    n_sas: int = 8,
    rtt: float = 0.01,
    detection_delay: float = 0.0,
    contended: bool = True,
    costs: CostModel = PAPER_COSTS,
    seed: int = 0,
) -> dict[str, Any]:
    """The IETF remedy at gateway scale: N renegotiations at one instant.

    E7's :class:`~repro.core.baselines.RekeySimulation` renegotiates
    sequentially (one CPU, one session at a time).  A gateway reset
    drops N SAs at once, and an implementation would fire all N IKE
    exchanges concurrently: network round-trips overlap, but every DH
    exponentiation and PRF evaluation still serializes on the recovering
    host's CPU (:class:`~repro.ipsec.ike.SerialCompute` — the same
    FIFO-reservation shape as the shared store's FETCH storm).  Each
    remote peer is a distinct host, so responder compute is uncontended.

    Reported against both E7 baselines: the sequential train it
    improves on, and the SAVE/FETCH recovery that needs no network at
    all.  ``contended=False`` ablates the CPU model (pure overlap — the
    lower bound an infinitely parallel host could reach).
    """
    engine = Engine(trace=NULL_TRACE)
    config = IkeConfig(costs=costs)
    one_way = FixedDelay(rtt / 2.0)
    gateway_cpu = SerialCompute() if contended else None
    completions: list[float] = []
    messages = {"count": 0}

    initiators: list[IkeInitiator] = []
    links_out: list[Link] = []
    links_back: list[Link] = []
    for index in range(n_sas):
        pair_seed = derive_seed(seed, "rekey_storm", index)
        # send_fn closures bind the index, not the loop variable.
        responder = IkeResponder(
            engine,
            f"peer{index}",
            "gw",
            send_fn=lambda m, i=index: links_back[i].send(m),
            config=config,
            seed=pair_seed * 2 + 1,
        )
        initiator = IkeInitiator(
            engine,
            "gw",
            f"peer{index}",
            send_fn=lambda m, i=index: links_out[i].send(m),
            config=config,
            seed=pair_seed * 2 + 2,
            compute=gateway_cpu,
        )

        def on_complete(result) -> None:
            completions.append(result.completed_at)
            messages["count"] += result.messages_sent

        def count_responder(result) -> None:
            messages["count"] += result.messages_sent

        initiator.on_complete = on_complete
        responder.on_complete = count_responder
        links_out.append(Link(
            engine, f"link:gw->peer{index}", sink=responder.on_receive,
            delay=one_way,
        ))
        links_back.append(Link(
            engine, f"link:peer{index}->gw", sink=initiator.on_receive,
            delay=one_way,
        ))
        initiators.append(initiator)

    for initiator in initiators:
        engine.call_at(detection_delay, initiator.start)
    engine.run()
    if len(completions) != n_sas:
        raise RuntimeError(
            f"only {len(completions)}/{n_sas} storm negotiations completed"
        )
    storm_time = max(completions) - detection_delay

    sequential = RekeySimulation(
        n_sas=n_sas,
        rtt=rtt,
        detection_delay=detection_delay,
        costs=costs,
        seed=seed,
    ).run()
    savefetch = savefetch_recovery_outcome(n_sas=n_sas, costs=costs)
    return {
        "n_sas": n_sas,
        "rekey_storm_time_s": storm_time,
        "rekey_sequential_time_s": sequential.renegotiation_time,
        "savefetch_time_s": savefetch.recovery_time,
        "messages": messages["count"],
        "cpu_busy_s": gateway_cpu.busy_time if gateway_cpu is not None else 0.0,
        "cpu_max_wait_s": gateway_cpu.max_wait if gateway_cpu is not None else 0.0,
        "storm_speedup": (
            sequential.renegotiation_time / storm_time if storm_time > 0 else 0.0
        ),
    }


#: Stable scenario names for declarative drivers (fleet campaign specs
#: and experiment sweeps).  Every ``run_*`` scenario callable in this
#: module is reachable by name here.
SCENARIOS: dict[str, Callable[..., dict[str, Any]]] = {
    "sender_reset": run_sender_reset_scenario,
    "receiver_reset": run_receiver_reset_scenario,
    "dual_reset": run_dual_reset_scenario,
    "loss_reset": run_loss_reset_scenario,
    "reorder": run_reorder_scenario,
    "rekey": run_rekey_scenario,
    "staggered_reset": run_staggered_reset_scenario,
    "prolonged_reset": run_prolonged_reset_scenario,
    "recovery_ablation": run_recovery_ablation_scenario,
    "reset_notice": run_reset_notice_scenario,
    "dpd": run_dpd_scenario,
    "save_policy": run_save_policy_scenario,
    "loss_hole": run_loss_hole_scenario,
    "gateway_crash": run_gateway_crash_scenario,
    "rolling_restart": run_rolling_restart_scenario,
    "sa_churn": run_sa_churn_scenario,
    "nat_rebinding": run_nat_rebinding_scenario,
    "path_flap": run_path_flap_scenario,
    "mobile_handover": run_mobile_handover_scenario,
    "rekey_storm": run_rekey_storm_scenario,
}


def get_scenario(name: str) -> Callable[..., dict[str, Any]]:
    """Look up a scenario by registry name.

    Raises:
        KeyError: with the list of known names, if ``name`` is unknown.
    """
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
