#!/usr/bin/env python3
"""A multi-SA IPsec host surviving a host-wide reset.

Host a talks to host b over several ESP security associations at once:
each SA is one SAVE/FETCH pair from ``build_protocol`` (its own SPI,
keys, sequence counter, persistent store and anti-replay window), and
all of them run on one shared engine, so they share host a's clock and
fate.  A host-wide reset of a erases *every* SA's volatile counter at the
same instant; with per-SA SAVE/FETCH each association recovers
independently in microseconds (FETCH, leap by 2K, synchronous SAVE),
which is the multi-SA scenario the paper contrasts with tearing all of
them down and re-running IKE (priced by examples/rekey_vs_savefetch.py).
Once the traffic is over, an on-path adversary replays every SA's
recorded history at b.

Run:  python examples/ipsec_host_demo.py
"""

from collections import defaultdict

from repro import PAPER_COSTS, Engine, FaultEnv, Replay, Reset, build_protocol
from repro.sim.trace import NULL_TRACE

N_SAS = 8
ATTEMPTS = 400  # send attempts per SA
RESET_AT = 0.0006  # s: mid-stream on every SA
DOWN_TIME = 0.0005  # s
REPLAY_AT = 0.01  # s: after every SA has finished sending


def main() -> None:
    engine = Engine(trace=NULL_TRACE)
    wire: dict[int, list[int]] = defaultdict(list)  # SPI -> seqs sent

    def on_wire(_t: float, packet, injected: bool) -> None:
        if not injected:  # the adversary's replays are not sends
            wire[packet.spi].append(packet.seq)

    pairs = []
    for i in range(N_SAS):
        harness = build_protocol(
            encap="esp", engine=engine, sender_name=f"a{i}",
            receiver_name=f"b{i}", seed=i, with_adversary=True,
        )
        harness.link.add_tap(on_wire)
        env = FaultEnv.of(harness)
        Reset(at=RESET_AT, down_time=DOWN_TIME).apply(env)
        Replay(at=REPLAY_AT, strategy="history").apply(env)
        # SA i sends every (1 + i/4) t_send, so each counter stands
        # somewhere else when the reset hits.
        harness.sender.start_traffic(
            count=ATTEMPTS, interval=PAPER_COSTS.t_send * (1 + i / 4)
        )
        pairs.append(harness)
    engine.run(until=0.02)

    reports = [harness.score() for harness in pairs]
    reused = sum(len(seqs) - len(set(seqs)) for seqs in wire.values())
    replayed = sum(harness.adversary.injections for harness in pairs)
    print("=== host-wide reset of a: per-SA SAVE/FETCH over ESP ===")
    print(f"{'SA':<4} {'SPI':>10} {'sent':>5} {'delivered':>9} "
          f"{'last seq':>8} {'resumed':>7} {'replays acc.':>12}")
    for i, (harness, report) in enumerate(zip(pairs, reports)):
        record = harness.sender.reset_records[0]
        print(f"a{i}   {harness.sa_pair.forward.spi:>#10x} "
              f"{report.audit.fresh_sent:>5} {report.audit.delivered_uids:>9} "
              f"{record.last_used_seq:>8} {record.resumed_seq:>7} "
              f"{report.replays_accepted:>12}")
    print(f"SPIs on the wire             : {len(wire)}")
    print(f"replays injected at b        : {replayed}")
    print(f"replays accepted at b        : {sum(r.replays_accepted for r in reports)}")
    print(f"sequence numbers reused      : {reused}")
    assert len(wire) == N_SAS, "BUG: an SA carried no traffic"
    assert reused == 0, "BUG: sequence number reuse"
    assert all(report.converged for report in reports), "BUG: an SA did not converge"
    print("every SA recovered independently; no reuse, nothing replayable.")


if __name__ == "__main__":
    main()
