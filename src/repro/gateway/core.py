"""The gateway node: N concurrent SAs multiplexed in one engine.

The paper analyzes one sender-receiver pair per reset; its deployment
unit is a security gateway terminating many SAs, where one crash is one
reset event hitting *every* SA at the same instant and recovery contends
for one persistent store.  :class:`Gateway` builds that topology out of
the existing pieces: per-SA pairs come from
:func:`repro.core.protocol.build_protocol` (the gateway side's
persistent store replaced by a :class:`~repro.gateway.store.SharedStore`
client), all wired onto a single :class:`~repro.sim.engine.Engine` so
the whole gateway is one deterministic event schedule — and one engine
run, which is what makes a 50-SA gateway dramatically cheaper than 50
separate single-SA simulations (``benchmarks/bench_m5_gateway.py``
measures the multiplexing win).

Fault stories are kinds of :mod:`repro.faults`
(:class:`~repro.faults.GatewayCrash`, :class:`~repro.faults.RollingRestart`,
:class:`~repro.faults.SAChurn`, armed against ``FaultEnv.of(gateway)``;
a path fault for one SA takes the env of that SA's harness); scoring
flattens per-SA
:class:`~repro.core.convergence.ConvergenceReport` objects into one
fleet-compatible :class:`~repro.gateway.report.GatewayReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING, Mapping

from repro.core.convergence import score_run
from repro.core.endpoint import Endpoint
from repro.core.protocol import ProtocolHarness, build_protocol
from repro.gateway.report import GatewayReport, SAOutcome
from repro.gateway.store import SharedStore, safe_save_interval
from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.obs.hub import MetricsHub, NULL_HUB, default_hub
from repro.obs.probe import EventCoreProbe, SharedStoreProbe
from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL, Sampler
from repro.sim.engine import Engine
from repro.sim.trace import NULL_TRACE, TraceRecorder
from repro.util.rng import derive_seed
from repro.util.validation import check_finite_non_negative, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netpath.profile import PathProfile

#: Sides of an SA a gateway can terminate.
GATEWAY_SIDES = ("sender", "receiver")


@dataclass
class SAUnit:
    """One SA terminated by the gateway: the pair plus its lifecycle."""

    index: int
    harness: ProtocolHarness
    side: str
    created_at: float
    torn_down_at: float | None = None
    traffic: dict[str, object] = field(default_factory=dict)

    @property
    def live(self) -> bool:
        return self.torn_down_at is None

    @property
    def gateway_end(self) -> Endpoint:
        """The endpoint living on the gateway host (shares its faults)."""
        if self.side == "sender":
            return self.harness.sender
        return self.harness.receiver

    @property
    def remote_end(self) -> Endpoint:
        """The peer endpoint on the far host (private store, own faults)."""
        if self.side == "sender":
            return self.harness.receiver
        return self.harness.sender


class Gateway:
    """A gateway terminating ``n_sas`` SAs inside one engine run.

    Args:
        n_sas: SAs established at construction (:meth:`add_sa` and
            :class:`~repro.faults.SAChurn` can add more mid-run).
        side: ``"sender"`` — the gateway originates each SA's traffic
            (outbound tunnels) — or ``"receiver"`` — it terminates
            traffic sent by remote peers.  Either way the gateway-side
            endpoints share the store and the correlated faults.
        protected: SAVE/FETCH endpoints (True, the default) or the
            Section 2 unprotected baseline.
        k / w: SAVE interval and window size, applied to both ends.
            ``k=None`` (the default) applies the gateway sizing rule
            (:func:`~repro.gateway.store.safe_save_interval`) — the
            paper's 25 scaled to the shared device; pinning ``k=25`` at
            ``n_sas > 1`` under the serial policy under-provisions the
            store and (correctly) breaks the 2K guarantees.
        costs: operation cost model (also sizes the shared store).
        store_policy: one of
            :data:`repro.gateway.store.STORE_POLICIES`.
        seed: master seed; per-SA seeds derive via the spawn-key scheme
            so every SA's channel randomness is independent.
        leap_factor / skip_wake_save: ablation switches, forwarded
            per SA.
        engine: optional existing engine (default: a fresh one).
        trace: trace recorder for a fresh engine (default
            :data:`~repro.sim.trace.NULL_TRACE` — gateways are
            batch-scale; pass a recording ``TraceRecorder()`` to debug).
        path: optional :class:`~repro.netpath.PathProfile` every SA's
            link follows (each SA binds its own timeline under its own
            derived seed).
        sa_paths: per-SA profile overrides, SA index -> profile — how a
            path impairment hits *one* SA of N while the rest stay on
            ``path`` (or the fixed channel).  Applies to SAs created by
            churn too (indices keep counting up).
        store_load_factor: forwarded to
            :class:`~repro.gateway.store.SharedStore` — load-dependent
            SAVE duration (0.0 = the paper's fixed upper bound).
        hub: metrics hub for per-SA health signals (default: the
            ambient :func:`repro.obs.default_hub`).  When enabled, each
            SA publishes under a ``saN`` sub-hub label, the shared
            device under ``store/``, and one gateway-wide
            :class:`~repro.obs.Sampler` snapshots everything; when
            disabled (the default ambient :data:`~repro.obs.NULL_HUB`)
            nothing attaches and runs are byte-identical to pre-obs.
        sample_interval: sampling period when the hub is enabled.
    """

    def __init__(
        self,
        n_sas: int,
        side: str = "sender",
        protected: bool = True,
        k: int | None = None,
        w: int = 64,
        costs: CostModel = PAPER_COSTS,
        store_policy: str = "serial",
        seed: int = 0,
        leap_factor: int = 2,
        skip_wake_save: bool = False,
        engine: Engine | None = None,
        trace: TraceRecorder | None = None,
        path: "PathProfile | None" = None,
        sa_paths: "Mapping[int, PathProfile] | None" = None,
        store_load_factor: float = 0.0,
        hub: MetricsHub | None = None,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        check_positive_int("n_sas", n_sas)
        if side not in GATEWAY_SIDES:
            raise ValueError(
                f"unknown gateway side {side!r}; expected one of {GATEWAY_SIDES}"
            )
        self.side = side
        self.protected = protected
        if k is None:
            k = safe_save_interval(n_sas, costs, store_policy)
        self.k = check_positive_int("k", k)
        self.w = check_positive_int("w", w)
        self.costs = costs
        self.seed = seed
        self.leap_factor = leap_factor
        self.skip_wake_save = skip_wake_save
        self.engine = engine if engine is not None else Engine(
            trace=trace if trace is not None else NULL_TRACE
        )
        self.path = path
        self.sa_paths = dict(sa_paths) if sa_paths is not None else {}
        self.store = SharedStore(
            self.engine, "store:gateway", costs=costs, policy=store_policy,
            load_factor=store_load_factor,
        )
        if hub is None:
            hub = default_hub()
        self.hub: MetricsHub | None = hub if hub.enabled else None
        self.sampler: Sampler | None = None
        if self.hub is not None:
            self.sampler = Sampler(self.engine, self.hub, interval=sample_interval)
            self.sampler.register(SharedStoreProbe(self.hub, self.store))
            self.sampler.register(EventCoreProbe(self.hub, self.engine))
            self.sampler.start()
        self.sas: list[SAUnit] = []
        self.crash_times: list[float] = []
        self.restart_waves: list[list[float]] = []
        self.churn_events = 0
        self._next_index = 0
        self._traffic_defaults: dict[str, object] = {}
        for _ in range(n_sas):
            self.add_sa()

    # ------------------------------------------------------------------
    # SA lifecycle
    # ------------------------------------------------------------------
    def add_sa(self) -> SAUnit:
        """Establish one more SA on the shared engine (usable mid-run)."""
        index = self._next_index
        self._next_index += 1
        store_client = None
        if self.protected:
            # Same initial checkpoint the private stores use: the value
            # written when the SA was established (paper: 1 at p, 0 at q).
            initial = 1 if self.side == "sender" else 0
            store_client = self.store.client(
                f"disk:{self.side[0]}{index}", initial_value=initial
            )
        harness = build_protocol(
            engine=self.engine,
            protected=self.protected,
            k_p=self.k,
            k_q=self.k,
            w=self.w,
            costs=self.costs,
            seed=derive_seed(self.seed, "sa", index),
            leap_factor=self.leap_factor,
            skip_wake_save=self.skip_wake_save,
            sender_name=f"p{index}",
            receiver_name=f"q{index}",
            sender_store=store_client if self.side == "sender" else None,
            receiver_store=store_client if self.side == "receiver" else None,
            path=self.sa_paths.get(index, self.path),
            # Explicit (never ambient): the gateway decided observability
            # at construction; its SAs publish under per-SA labels.
            hub=self.hub.sub(f"sa{index}") if self.hub is not None else NULL_HUB,
        )
        unit = SAUnit(
            index=index,
            harness=harness,
            side=self.side,
            created_at=self.engine.now,
        )
        if self.sampler is not None and harness.probe is not None:
            self.sampler.register(harness.probe)
        self.sas.append(unit)
        return unit

    def tear_down_sa(self, unit: SAUnit) -> None:
        """Administratively retire one SA: traffic stops, state is kept
        (the unit still scores — its history happened)."""
        if not unit.live:
            return
        unit.harness.sender.stop_traffic()
        unit.torn_down_at = self.engine.now

    def live_sas(self) -> list[SAUnit]:
        """The SAs currently established, in creation order."""
        return [unit for unit in self.sas if unit.live]

    def churn(self, messages: int) -> SAUnit:
        """One churn cycle: retire the oldest live SA, establish a new one."""
        self.churn_events += 1
        live = self.live_sas()
        if live:
            self.tear_down_sa(live[0])
        created = self.add_sa()
        interval = self._traffic_defaults.get("interval")
        created.harness.sender.start_traffic(
            count=messages, interval=interval  # type: ignore[arg-type]
        )
        created.traffic = {"count": messages, "interval": interval}
        return created

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def start_traffic(
        self, count: int | None = None, interval: float | None = None
    ) -> None:
        """Start every live SA's sender stream (also the churn default)."""
        self._traffic_defaults = {"count": count, "interval": interval}
        for unit in self.live_sas():
            unit.harness.sender.start_traffic(count=count, interval=interval)
            unit.traffic = {"count": count, "interval": interval}

    def run(self, until: float | None = None) -> int:
        """Run the shared engine (all SAs advance together)."""
        return self.engine.run(until=until)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def crash(self, down_for: float | None = 0.0) -> None:
        """The correlated reset: every live SA's gateway-side endpoint
        loses its volatile state at this instant, then the store queue
        dies.  (Endpoint resets run first so each reset record observes
        its own save-in-flight state, exactly as a private-store reset
        does.)  A bad ``down_for`` is refused before anything happens."""
        if down_for is not None:
            check_finite_non_negative("down_for", down_for)
        self.crash_times.append(self.engine.now)
        for unit in self.live_sas():
            unit.gateway_end.reset(down_for=down_for)
        self.store.crash()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score(self, check_bounds: bool = True) -> GatewayReport:
        """Score every SA (churned ones included) into one report."""
        outcomes = [
            SAOutcome(
                index=unit.index,
                created_at=unit.created_at,
                torn_down_at=unit.torn_down_at,
                report=score_run(
                    unit.harness.auditor,
                    unit.harness.sender,
                    unit.harness.receiver,
                    check_bounds=check_bounds,
                ),
            )
            for unit in self.sas
        ]
        events = [[t] for t in self.crash_times] + self.restart_waves
        spreads = [
            spread
            for reset_times in events
            if (spread := self._recovery_spread(reset_times)) is not None
        ]
        return GatewayReport(
            side=self.side,
            store_policy=self.store.policy,
            sa_outcomes=outcomes,
            k=self.k,
            gateway_crashes=len(self.crash_times),
            recovery_spreads=spreads,
            churn_events=self.churn_events,
            store_stats={
                "saves": self.store.saves,
                "fetches": self.store.fetches,
                "device_writes": self.store.device_writes,
                "batches": self.store.batches,
                "batched_saves": self.store.batched_saves,
                "busy_time": self.store.busy_time,
                "max_save_wait": self.store.max_save_wait,
                "max_fetch_wait": self.store.max_fetch_wait,
            },
        )

    def _recovery_spread(self, reset_times: list[float]) -> float | None:
        """Spread of recovery completions for one correlated fault event.

        ``reset_times`` is the event's per-SA reset instants — a single
        time repeated by a crash, the staggered sequence of a restart
        wave.  The store-contention fingerprint: with one uncontended SA
        this is 0; under a serialized post-crash FETCH storm the last SA
        resumes roughly ``(N - 1) * t_fetch`` after the first; a restart
        wave's spread additionally carries its stagger.
        """
        wanted = set(reset_times)
        resumes = []
        for unit in self.sas:
            for record in unit.gateway_end.reset_records:
                if record.reset_time in wanted and record.resume_time is not None:
                    resumes.append(record.resume_time)
        if len(resumes) < 1:
            return None
        return max(resumes) - min(resumes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Gateway side={self.side!r} sas={len(self.sas)} "
            f"policy={self.store.policy!r} t={self.engine.now:.6f}>"
        )
