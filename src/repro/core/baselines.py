"""The IETF tear-down-and-rekey baseline (system S10, experiment E7).

Section 3: "the IPsec Working Group at IETF suggests that if either peer
of an IPsec SA is reset ... the entire IPsec SA should be deleted and
reestablished once the reset is detected. ... However, reestablishing the
entire IPsec SA is very expensive. ... Moreover, a host may have multiple
SAs existing at the same time ... Requiring a host with multiple existing
SAs to drop and reestablish all the existing SAs because of a reset stands
for a huge amount of overhead."

:class:`RekeySimulation` measures that overhead with *real* simulated IKE
handshakes (every ISAKMP message crosses a latency link; every DH
exponentiation costs virtual compute time), renegotiating ``n_sas``
security associations sequentially on the recovering host, exactly as a
single-CPU host of the paper's era would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bounds import savefetch_recovery_time
from repro.ipsec.costs import CostModel, PAPER_COSTS
from repro.ipsec.ike import IkeConfig, IkeInitiator, IkeResponder, IkeResult
from repro.ipsec.sa import SaPair
from repro.net.delay import FixedDelay
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.util.validation import check_non_negative, check_positive_int


@dataclass
class RekeyOutcome:
    """What the IETF remedy cost for one reset event."""

    n_sas: int
    rtt: float
    detection_delay: float
    renegotiation_time: float
    messages_exchanged: int
    compute_time: float
    sa_pairs: list[SaPair] = field(default_factory=list)

    @property
    def total_recovery_time(self) -> float:
        """Reset -> all SAs live again (detection + renegotiation)."""
        return self.detection_delay + self.renegotiation_time


class RekeySimulation:
    """Renegotiate ``n_sas`` SA pairs between two hosts after a reset.

    Args:
        n_sas: how many SA pairs the hosts shared (all torn down).
        rtt: round-trip time between the hosts.
        detection_delay: reset -> detection latency (from DPD, or a
            closed-form estimate).
        costs: crypto/IO cost model.
        seed: RNG seed for the IKE nonces/keys.
    """

    def __init__(
        self,
        n_sas: int = 1,
        rtt: float = 0.01,
        detection_delay: float = 0.0,
        costs: CostModel = PAPER_COSTS,
        seed: int = 0,
    ) -> None:
        self.n_sas = check_positive_int("n_sas", n_sas)
        check_non_negative("rtt", rtt)
        check_non_negative("detection_delay", detection_delay)
        self.rtt = rtt
        self.detection_delay = detection_delay
        self.costs = costs
        self.seed = seed

    def run(self) -> RekeyOutcome:
        """Tear down and sequentially renegotiate every SA; measure it."""
        engine = Engine()
        config = IkeConfig(costs=self.costs)
        one_way = FixedDelay(self.rtt / 2.0)

        results: list[IkeResult] = []
        state: dict[str, float | int] = {"messages": 0, "done_at": 0.0}

        # The two hosts and the links between them (IKE runs in both
        # directions over these).
        responder = IkeResponder(
            engine,
            "b",
            "a",
            send_fn=lambda m: link_ba.send(m),
            config=config,
            seed=self.seed * 2 + 1,
        )
        initiator = IkeInitiator(
            engine,
            "a",
            "b",
            send_fn=lambda m: link_ab.send(m),
            config=config,
            seed=self.seed * 2 + 2,
        )
        link_ab = Link(engine, "link:a->b", sink=responder.on_receive, delay=one_way)
        link_ba = Link(engine, "link:b->a", sink=initiator.on_receive, delay=one_way)

        def negotiate_next() -> None:
            if len(results) >= self.n_sas:
                return
            initiator.start()

        def on_complete(result: IkeResult) -> None:
            results.append(result)
            state["messages"] += result.messages_sent
            state["done_at"] = result.completed_at
            negotiate_next()

        initiator.on_complete = on_complete

        def count_responder(result: IkeResult) -> None:
            state["messages"] += result.messages_sent

        responder.on_complete = count_responder

        # Detection happened `detection_delay` after the reset; the rekey
        # train starts then.
        engine.call_at(self.detection_delay, negotiate_next)
        engine.run()

        if len(results) != self.n_sas:
            raise RuntimeError(
                f"only {len(results)}/{self.n_sas} negotiations completed"
            )
        renegotiation_time = float(state["done_at"]) - self.detection_delay
        compute_time = sum(r.compute_time for r in results) + sum(
            r.compute_time for r in [responder.result] if r is not None
        )
        return RekeyOutcome(
            n_sas=self.n_sas,
            rtt=self.rtt,
            detection_delay=self.detection_delay,
            renegotiation_time=renegotiation_time,
            messages_exchanged=int(state["messages"]),
            compute_time=compute_time,
            sa_pairs=[r.sa_pair for r in results],
        )


@dataclass
class SaveFetchOutcome:
    """What SAVE/FETCH recovery costs for the same reset event.

    Recovery is local: one FETCH plus one synchronous SAVE, zero network
    messages, independent of how many SAs the host holds (each SA's
    counter is one more fetched integer; both IO costs are charged).
    """

    n_sas: int
    recovery_time: float
    messages_exchanged: int = 0
    compute_time: float = 0.0


def savefetch_recovery_outcome(
    n_sas: int = 1, costs: CostModel = PAPER_COSTS
) -> SaveFetchOutcome:
    """Closed-form SAVE/FETCH recovery cost for ``n_sas`` associations.

    Counter fetches/saves for distinct SAs are sequential disk operations
    on the recovering host — the honest comparison with the sequential
    IKE train.
    """
    check_positive_int("n_sas", n_sas)
    per_sa = savefetch_recovery_time(costs)
    return SaveFetchOutcome(
        n_sas=n_sas,
        recovery_time=n_sas * per_sa,
        messages_exchanged=0,
        compute_time=n_sas * per_sa,
    )
