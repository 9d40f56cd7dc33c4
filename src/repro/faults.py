"""One fault algebra: resets, gateway faults, path faults and replays.

The paper's fault model is a reset placed against the SAVE cycle
(Fig. 1/2, Section 4) plus the Section 3 replay adversary; gateways and
time-varying paths add correlated crashes and path events.  Each is a
:class:`Fault` kind (:data:`FAULT_KINDS`): a frozen, keyword-only
dataclass with exactly one trigger, armed by :meth:`Fault.apply` against
a :class:`FaultEnv`, firing once.  The triggers:

* ``at`` — an absolute simulated time;
* ``after_sends`` — synchronously right after the watched endpoint's
  N-th send, or its N-th processed packet for a receiver;
* ``during_save`` + ``fraction`` — ``fraction * t_save`` into the N-th
  SAVE start on the watched endpoint's store, synchronous wake SAVEs
  included (the Fig. 1/2 "reset before the current SAVE finishes" case);
* ``on_wake`` — the watched endpoint's first completed recovery.

The watched endpoint is the env's sender, except that a receiver
:class:`Reset` and a :class:`Replay` on wake watch the receiver and the
gateway kinds watch SA 0's gateway-side endpoint.  A kind's
:meth:`Fault.action` looks up what it touches when the fault is applied,
so a missing link, sender, adversary or gateway raises at
:meth:`Fault.apply`; follow-up events (``path_up``, later flap or churn
cycles, a staggered receiver reset) are scheduled when the fault fires.
:meth:`Fault.to_dict` / :meth:`Fault.from_dict` round-trip every kind,
carried in fleet campaign specs under the ``__fault__`` tag of
:mod:`repro.fleet.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.protocol import ProtocolHarness
from repro.netpath.profile import PathPhase
from repro.util.validation import (
    check_finite_non_negative,
    check_positive,
    check_positive_int,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gateway.core import Gateway
    from repro.net.adversary import ReplayAdversary
    from repro.net.link import Link
    from repro.sim.engine import Engine

#: What a fault does when its trigger fires.
Action = Callable[[], Any]

#: :class:`Reset` sides.
RESET_SIDES = ("sender", "receiver", "both")

#: :class:`Replay` strategies.
REPLAY_STRATEGIES = ("history", "max", "exposed")


@dataclass(frozen=True)
class FaultEnv:
    """What a fault may act on.

    Build one per pair with :meth:`of` — a fault for one SA of a gateway
    takes the env of that SA's harness — or of a whole gateway for the
    gateway kinds.
    """

    engine: "Engine"
    sender: Any = None
    receiver: Any = None
    link: "Link | None" = None
    adversary: "ReplayAdversary | None" = None
    gateway: "Gateway | None" = None

    @classmethod
    def of(cls, target: "ProtocolHarness | Gateway") -> "FaultEnv":
        """The env of a wired pair, or of a gateway."""
        if isinstance(target, ProtocolHarness):
            return cls(target.engine, target.sender, target.receiver,
                       target.link, target.adversary)
        return cls(target.engine, gateway=target)

    def need(self, name: str, fault: "Fault") -> Any:
        """The member ``name``, or a :class:`ValueError` naming the fault."""
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"{type(fault).__name__} needs a {name} in its FaultEnv")
        return value


@dataclass(frozen=True, kw_only=True)
class Fault:
    """Base of every kind: exactly one trigger, one action, fired once."""

    at: float | None = None
    after_sends: int | None = None
    during_save: int | None = None
    fraction: float = 0.5
    on_wake: bool = False

    kind = ""

    def __post_init__(self) -> None:
        # Validate at construction: a misconfigured fault must fail while
        # a campaign spec is authored or loaded, not inside a worker.
        armed = [name for name in ("at", "after_sends", "during_save")
                 if getattr(self, name) is not None]
        if self.on_wake:
            armed.append("on_wake")
        if len(armed) != 1:
            raise ValueError(
                f"{type(self).__name__} needs exactly one trigger: 'at', "
                f"'after_sends', 'during_save' or 'on_wake' (got {armed})"
            )
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {self.fraction}")
        # A field name means the same in every kind that has it.  A count
        # refuses a float or a bool instead of truncating it.
        for name in ("after_sends", "during_save", "cycles", "messages"):
            if (value := getattr(self, name, None)) is not None:
                check_positive_int(name, value)
        for name in ("interval", "rate"):
            if (value := getattr(self, name, None)) is not None:
                check_positive(name, value)
        # A time refuses infinity too: it would fail mid-run, not here.
        for name in ("at", "down_time", "stagger", "up_time", "interval"):
            if (value := getattr(self, name, None)) is not None:
                check_finite_non_negative(name, value)

    def action(self, env: FaultEnv) -> Action:
        """Look up what the fault touches in ``env``; return what it does."""
        raise NotImplementedError

    def watched(self, env: FaultEnv) -> Any:
        """The endpoint whose sends, SAVEs or wake the trigger counts."""
        return env.need("sender", self)

    def apply(self, env: FaultEnv) -> None:
        """Arm the fault in ``env``: it fires once, at its trigger."""
        fire = self.action(env)
        if self.at is not None:
            env.engine.call_at(self.at, fire)
            return
        watched = self.watched(env)
        if self.after_sends is not None:
            _after_count(watched, self.after_sends, fire)
        elif self.during_save is not None:
            _during_save(env.engine, watched, self.during_save, self.fraction, fire)
        else:
            _on_first_wake(watched, fire)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe form :meth:`from_dict` reads back."""
        data: dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = value.to_dict() if isinstance(value, PathPhase) else value
        return data

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Fault":
        """Rebuild any kind from its :meth:`to_dict` form."""
        payload = dict(data)
        kind = payload.pop("kind", None)
        if kind not in FAULT_KINDS:
            known = ", ".join(sorted(FAULT_KINDS))
            raise ValueError(f"unknown fault kind {kind!r}; known: {known}")
        return FAULT_KINDS[kind](**payload)


def _after_count(endpoint: Any, count: int, fire: Action) -> None:
    fired = False
    if hasattr(endpoint, "add_send_listener"):
        def on_send(sent_total: int, packet: Any) -> None:
            nonlocal fired
            if not fired and sent_total >= count:
                fired = True
                fire()

        endpoint.add_send_listener(on_send)
    elif hasattr(endpoint, "add_process_listener"):
        seen = 0

        def on_process(packet: Any, verdict: Any) -> None:
            nonlocal fired, seen
            seen += 1
            if not fired and seen >= count:
                fired = True
                fire()

        endpoint.add_process_listener(on_process)
    else:
        raise TypeError(
            f"{endpoint!r} has neither add_send_listener nor add_process_listener"
        )


def _during_save(
    engine: "Engine", endpoint: Any, nth: int, fraction: float, fire: Action
) -> None:
    store = getattr(endpoint, "store", None)
    if store is None:
        raise ValueError(f"{endpoint!r} has no store whose SAVEs a fault can watch")
    starts = 0

    def on_save(record: Any) -> None:
        nonlocal starts
        if record.committed or record.aborted:
            return  # only starts count
        starts += 1
        if starts == nth:
            engine.call_later(fraction * store.t_save, fire)

    store.add_listener(on_save)


def _on_first_wake(endpoint: Any, fire: Action) -> None:
    fired = False

    def on_resume() -> None:
        nonlocal fired
        if not fired:
            fired = True
            fire()

    endpoint.add_resume_listener(on_resume)


# ----------------------------------------------------------------------
# Endpoint resets
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class Reset(Fault):
    """An endpoint loses its volatile state and stays down ``down_time``.

    ``side="both"`` resets the sender, then the receiver ``stagger``
    seconds later (at once when 0) — Section 5's third case.
    """

    side: str = "sender"
    down_time: float = 0.0
    stagger: float = 0.0

    kind = "reset"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.side not in RESET_SIDES:
            raise ValueError(
                f"unknown reset side {self.side!r}; expected one of {RESET_SIDES}"
            )
        if self.stagger and self.side != "both":
            raise ValueError("stagger applies to side='both' only")

    def watched(self, env: FaultEnv) -> Any:
        return env.need("receiver" if self.side == "receiver" else "sender", self)

    def action(self, env: FaultEnv) -> Action:
        down = self.down_time
        if self.side != "both":
            target = self.watched(env)
            return lambda: target.reset(down)
        sender = env.need("sender", self)
        receiver = env.need("receiver", self)

        def reset_both() -> None:
            sender.reset(down)
            if self.stagger == 0.0:
                receiver.reset(down)
            else:
                env.engine.call_later(self.stagger, receiver.reset, down)

        return reset_both


# ----------------------------------------------------------------------
# Correlated gateway faults
# ----------------------------------------------------------------------
class _GatewayKind(Fault):
    """Gateway kinds watch SA 0's gateway-side endpoint."""

    def watched(self, env: FaultEnv) -> Any:
        return env.need("gateway", self).sas[0].gateway_end


def _gateway_down_time(down_time: float | None, gateway: "Gateway") -> float:
    """A gateway kind's ``down_time``; ``None`` is ``2 * t_save``."""
    return down_time if down_time is not None else 2 * gateway.costs.t_save


@dataclass(frozen=True, kw_only=True)
class GatewayCrash(_GatewayKind):
    """The paper's reset, scaled up: every live SA's gateway-side endpoint
    resets at one instant and the shared store's queue is lost; the N
    recovery FETCHes then contend for one device."""

    down_time: float | None = None

    kind = "crash"

    def action(self, env: FaultEnv) -> Action:
        gateway = env.need("gateway", self)
        down = _gateway_down_time(self.down_time, gateway)
        return lambda: gateway.crash(down_for=down)


@dataclass(frozen=True, kw_only=True)
class RollingRestart(_GatewayKind):
    """A restart wave: live SA ``i`` resets ``i * stagger`` after the
    trigger.  The store stays up, so each recovery contends with the
    live SAs' background saves instead of with a storm of recoveries."""

    stagger: float = 0.0005
    down_time: float | None = None

    kind = "rolling_restart"

    def action(self, env: FaultEnv) -> Action:
        gateway = env.need("gateway", self)
        down = _gateway_down_time(self.down_time, gateway)

        def begin_wave() -> None:
            wave_times = []
            for position, unit in enumerate(gateway.live_sas()):
                at = gateway.engine.now + position * self.stagger
                wave_times.append(at)
                gateway.engine.call_at(at, unit.gateway_end.reset, down)
            gateway.restart_waves.append(wave_times)

        return begin_wave


@dataclass(frozen=True, kw_only=True)
class SAChurn(_GatewayKind):
    """Tunnel churn: ``cycles`` cycles, ``interval`` apart from the
    trigger, each retiring the oldest live SA and establishing a fresh
    one that sends ``messages``."""

    interval: float = 0.001
    cycles: int = 1
    messages: int = 200

    kind = "sa_churn"

    def action(self, env: FaultEnv) -> Action:
        gateway = env.need("gateway", self)

        def churn() -> None:
            start = gateway.engine.now
            gateway.churn(self.messages)
            for cycle in range(1, self.cycles):
                gateway.engine.call_at(
                    start + cycle * self.interval, gateway.churn, self.messages
                )

        return churn


# ----------------------------------------------------------------------
# Path faults
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class PathFlap(Fault):
    """``cycles`` blackhole windows of ``down_time``, ``up_time`` apart.

    Packets offered inside a window vanish (counted in
    ``Link.blackholed``) with none of the ICMP an availability outage
    produces.  One cycle is a plain outage.
    """

    down_time: float
    up_time: float = 0.0
    cycles: int = 1

    kind = "flap"

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("flap down_time", self.down_time)
        if self.cycles > 1:
            check_positive("the up_time between flap cycles", self.up_time)

    def action(self, env: FaultEnv) -> Action:
        link = env.need("link", self)
        engine = env.engine
        period = self.down_time + self.up_time

        def flap() -> None:
            start = engine.now
            link.path_down()
            engine.call_at(start + self.down_time, link.path_up)
            for cycle in range(1, self.cycles):
                down_at = start + cycle * period
                engine.call_at(down_at, link.path_down)
                engine.call_at(down_at + self.down_time, link.path_up)

        return flap


@dataclass(frozen=True, kw_only=True)
class RegimeShift(Fault):
    """The link adopts ``phase``'s delay/loss/fifo/up at one instant; a
    later transition of an attached profile still overrides it."""

    phase: PathPhase

    kind = "regime_shift"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.phase, PathPhase):
            object.__setattr__(self, "phase", PathPhase.from_dict(self.phase))

    def action(self, env: FaultEnv) -> Action:
        link = env.need("link", self)
        return lambda: link.shift_regime(self.phase)


@dataclass(frozen=True, kw_only=True)
class NatRebinding(Fault):
    """The sender's network binding changes mid-SA: packets sealed
    afterwards carry ``new_address``, in-flight and recorded ones keep the
    old one, and the receiver's :class:`~repro.netpath.NatGate` decides."""

    new_address: str

    kind = "nat_rebinding"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.new_address:
            raise ValueError("new_address must be non-empty")

    def action(self, env: FaultEnv) -> Action:
        sender = env.need("sender", self)

        def rebind() -> None:
            sender.address = self.new_address

        return rebind


# ----------------------------------------------------------------------
# The replay adversary
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class Replay(Fault):
    """The Section 3 adversary strikes, injecting at ``rate`` packets/s.

    Strategies: ``history`` replays everything recorded, in order;
    ``max`` replays the highest-sequence packet (the window-jump
    attack); ``exposed`` replays the range between the receiver's
    resumed right edge and its right edge at its last reset.
    """

    strategy: str = "history"
    rate: float = 1e6

    kind = "replay"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.strategy not in REPLAY_STRATEGIES:
            raise ValueError(
                f"unknown replay strategy {self.strategy!r}; "
                f"expected one of {REPLAY_STRATEGIES}"
            )

    def watched(self, env: FaultEnv) -> Any:
        return env.need("receiver" if self.on_wake else "sender", self)

    def action(self, env: FaultEnv) -> Action:
        adversary = env.need("adversary", self)
        if self.strategy == "history":
            return lambda: adversary.replay_history(rate=self.rate)
        if self.strategy == "max":
            return adversary.replay_max
        receiver = env.need("receiver", self)

        def replay_exposed() -> None:
            if receiver.reset_records:
                record = receiver.reset_records[-1]
                adversary.replay_range(
                    (record.resumed_right_edge or 0) + 1,
                    record.right_edge_at_reset,
                    rate=self.rate,
                )

        return replay_exposed


#: kind tag -> fault class (the JSON codec's dispatch table).
FAULT_KINDS: dict[str, type[Fault]] = {
    cls.kind: cls
    for cls in (Reset, GatewayCrash, RollingRestart, SAChurn,
                PathFlap, RegimeShift, NatRebinding, Replay)
}
