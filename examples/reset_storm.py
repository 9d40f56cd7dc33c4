#!/usr/bin/env python3
"""A reset storm: repeated crashes on both endpoints, with an adversary.

Stress scenario beyond anything the paper evaluates directly: six resets
alternating between sender and receiver while an adversary replays random
recorded messages throughout.  The Section 5 guarantees are per-reset, so
the whole storm must stay within budget: zero replays accepted, and lost
sequence numbers bounded by 2Kp per sender reset.

Run:  python examples/reset_storm.py
"""

from repro import FaultEnv, Reset, build_protocol


def main() -> None:
    k = 25
    harness = build_protocol(protected=True, k_p=k, k_q=k, with_adversary=True)
    assert harness.adversary is not None

    # Alternating faults: sender at 1, 3, 5 ms; receiver at 2, 4, 6 ms.
    env = FaultEnv.of(harness)
    for side, times in (("sender", (1, 3, 5)), ("receiver", (2, 4, 6))):
        for t in times:
            Reset(side=side, at=0.001 * t, down_time=0.0003).apply(env)

    # Background replay pressure: 40 random recorded messages per ms.
    for ms in range(1, 8):
        harness.engine.call_at(
            0.001 * ms + 0.0005,
            lambda: harness.adversary.replay_random(40, rate=250_000),
        )

    harness.sender.start_traffic(count=4000)
    harness.run(until=0.05)

    report = harness.score()
    print("=== reset storm: 3 sender + 3 receiver resets + replay noise ===")
    print(f"messages sent fresh        : {report.audit.fresh_sent}")
    print(f"delivered                  : {report.audit.delivered_uids}")
    print(f"replays injected           : {harness.adversary.injections}")
    print(f"replays accepted           : {report.replays_accepted}")
    print(f"lost seqnums per p-reset   : {report.lost_seqnums_per_reset} "
          f"(bound {2 * k} each)")
    print(f"sender gaps                : {report.gaps_sender}")
    print(f"receiver gaps              : {report.gaps_receiver}")
    print(f"converged                  : {report.converged}")
    if not report.converged:
        raise SystemExit(f"BUG: {report.bound_violations}")


if __name__ == "__main__":
    main()
