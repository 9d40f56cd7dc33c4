"""Bench M5 — gateway multiplexing throughput: SAs/second.

The same N-SA crash-recovery workload two ways:

* ``bench_gateway_multiplexed`` — one :class:`~repro.gateway.Gateway`,
  one engine, one event heap for all N SAs (plus the shared-store
  contention model — the recovery FETCH storm is simulated, not free).
* ``bench_separate_engines`` — N independent single-SA simulations,
  each its own engine and private store: the only way to get N SAs
  before the gateway subsystem existed.

Both sides run the identical per-SA schedule (same K, same attempt
budget, same reset instant, same horizon) so the comparison measures
the multiplexing overhead/amortization — shared heap and setup vs N
cold engines — not workload differences.

Also runnable standalone, printing the comparison directly::

    PYTHONPATH=src python benchmarks/bench_m5_gateway.py
"""

from __future__ import annotations

from repro import perf
from repro.core.protocol import build_protocol
from repro.faults import FaultEnv, GatewayCrash, Reset
from repro.gateway import Gateway
from repro.ipsec.costs import PAPER_COSTS
from repro.sim.trace import NULL_TRACE

N_SAS = 32
K = 50  # the batched gateway sizing (safe for every N; same pinned for both)
CRASH_AFTER = 200
ATTEMPTS = 1600  # covers the post-crash stream + the 32-SA recovery queue
HORIZON = (ATTEMPTS + 10) * PAPER_COSTS.t_send + 20 * PAPER_COSTS.t_save
DOWN = 2 * PAPER_COSTS.t_save


def _run_multiplexed() -> None:
    gateway = Gateway(n_sas=N_SAS, k=K, store_policy="batched")
    GatewayCrash(after_sends=CRASH_AFTER, down_time=DOWN).apply(
        FaultEnv.of(gateway)
    )
    gateway.start_traffic(count=ATTEMPTS)
    gateway.run(until=HORIZON)
    report = gateway.score()
    assert report.converged, report.bound_violations
    assert report.gateway_crashes == 1


def _run_separate() -> None:
    for sa in range(N_SAS):
        harness = build_protocol(trace=NULL_TRACE, k_p=K, k_q=K, seed=sa)
        Reset(after_sends=CRASH_AFTER, down_time=DOWN).apply(
            FaultEnv.of(harness)
        )
        harness.sender.start_traffic(count=ATTEMPTS)
        harness.run(until=HORIZON)
        assert harness.score().converged


def bench_gateway_multiplexed(benchmark, report_rate):
    benchmark.pedantic(_run_multiplexed, rounds=3, iterations=1, warmup_rounds=1)
    report_rate("SAs/s", N_SAS)


def bench_separate_engines(benchmark, report_rate):
    benchmark.pedantic(_run_separate, rounds=3, iterations=1, warmup_rounds=1)
    report_rate("SAs/s", N_SAS)


def main() -> None:
    print(f"gateway multiplexing, {N_SAS} SAs x {ATTEMPTS} attempts, "
          f"crash after {CRASH_AFTER} sends")
    results: dict[str, float] = {}
    for name, fn in (("gateway (1 engine)", _run_multiplexed),
                     ("separate engines", _run_separate)):
        with perf.Stopwatch() as clock:
            fn()
        report = perf.measure_rate(name, "SAs/s", N_SAS, clock.elapsed)
        results[name] = report.rate
        print(f"  {report.format()}")
    ratio = results["gateway (1 engine)"] / results["separate engines"]
    print(f"  gateway vs separate engines: {ratio:.2f}x")


if __name__ == "__main__":
    main()
