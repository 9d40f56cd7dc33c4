"""Bench M7 — megafleet scale: 1M-task expansion and sampling, O(shard) aggregation.

Four claims behind the million-session roadmap item, measured:

* **Expansion** — the 1M-task campaign spec streams through
  ``CampaignSpec.iter_tasks`` without ever materialising the task list,
  at ~120k tasks/second (this bench, wall-clock, 2 shared vCPUs,
  Python 3.11.7; median of 6 runs on a loaded host, 99k–139k).
* **Sampling** — ``SampledCampaign(megafleet_spec(), 2000).tasks()``,
  the expansion ``repro fleet --sample 2000`` pays: membership is decided
  from each of the 1M ids and only the 1,954 kept tasks are built, at
  ~350k tasks/second on the same host (265k–416k).
* **Aggregation** — ``summarize_store`` over a sharded store folds one
  shard at a time: peak traced memory is a *budget in records-per-shard*,
  not records-per-campaign.  The budget lives in
  ``benchmarks/baselines/fleet_aggregate.json``; an accidental
  materialize-everything regression (which measures ~240x higher) fails
  the assertion, and CI runs it on every push.
* **Full scale** (``--runslow`` only) — the complete 1M-session campaign
  executed end to end on the sharded store, reporting sessions/second
  and peak RSS.  Hours of CPU; run it on a quiet machine, not in CI.

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_m7_megafleet.py
"""

from __future__ import annotations

import json
import resource
import tempfile
import tracemalloc
from pathlib import Path
from typing import Iterator

import pytest

from repro import perf
from repro.fleet import (
    FleetRunner,
    SampledCampaign,
    ShardedResultStore,
    TaskRecord,
    megafleet_spec,
    summarize_store,
)
from repro.util.rng import make_rng

#: Synthetic record count for the CI-sized aggregation bench (the full
#: 1M-record variant behaves identically per shard; 20k keeps the bench
#: job fast while leaving the materialize-all failure mode ~240x over
#: budget).
AGG_RECORDS = 20_000
AGG_SHARD_BITS = 4

BASELINE_PATH = Path(__file__).parent / "baselines" / "fleet_aggregate.json"

#: ``repro fleet --sample`` target of the sampling bench, and the number
#: of the megafleet's 1M tasks whose id the membership hash keeps for it.
SAMPLE_TARGET = 2000
SAMPLE_KEPT = 1954


def synthetic_records(count: int, seed: int = 9) -> Iterator[TaskRecord]:
    """Deterministic fleet-shaped records, no scenario execution."""
    rng = make_rng(seed)
    for index in range(count):
        yield TaskRecord(
            task_id=f"g{index % 4}/synth/s{index:06d}",
            scenario="sender_reset",
            params={
                "k": 25,
                "reset_after_sends": 40 + index % 20,
                "messages_after_reset": 60,
            },
            seed=1000 + index,
            status="ok",
            metrics={
                "converged": True,
                "sender_resets": 1,
                "receiver_resets": 0,
                "replays_accepted": 0,
                "fresh_discarded": rng.randrange(3),
                "lost_seqnums_per_reset": [rng.randrange(30)],
                "gaps_sender": [rng.randrange(10)],
                "gaps_receiver": [],
                "time_to_converge": [rng.uniform(1e-4, 8e-4)],
                "bound_violations": [],
                "fresh_sent": 100,
                "delivered_uids": 98,
                "never_arrived": 0,
            },
            wall_time=0.25,
        )


def build_store(workdir: str, count: int = AGG_RECORDS) -> ShardedResultStore:
    store = ShardedResultStore(
        Path(workdir) / "shards", bits=AGG_SHARD_BITS
    )
    for record in synthetic_records(count):
        store.append(record)
    return store


def memory_budget_bytes(records: int, shards: int) -> int:
    """The O(shard) budget from the checked-in baseline entry."""
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    entry = baseline["benchmarks"]["bench_megafleet_aggregation"]
    return int(
        entry["fixed_bytes"]
        + entry["bytes_per_shard_record"] * (records / shards)
    )


def check_aggregation_memory(store: ShardedResultStore, records: int) -> int:
    """Assert peak traced memory of one aggregation pass is O(shard)."""
    tracemalloc.start()
    try:
        summarize_store(store, exact_cap=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = memory_budget_bytes(records, len(store.shards))
    assert peak <= budget, (
        f"aggregation peak memory {peak:,} B exceeds the O(shard) budget "
        f"{budget:,} B — did something start materialising the campaign?"
    )
    return peak


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def bench_megafleet_expansion(benchmark, report_rate):
    spec = megafleet_spec()
    total = spec.session_count()

    def expand() -> int:
        count = sum(1 for _ in spec.iter_tasks())
        assert count == total
        return count

    benchmark.pedantic(expand, rounds=1, iterations=1, warmup_rounds=0)
    report_rate("tasks/s", total)


def bench_megafleet_sampling(benchmark, report_rate):
    sampled = SampledCampaign(megafleet_spec(), SAMPLE_TARGET)

    def sample() -> int:
        count = len(sampled.tasks())
        assert count == SAMPLE_KEPT
        return count

    benchmark.pedantic(sample, rounds=1, iterations=1, warmup_rounds=0)
    report_rate("tasks/s", sampled.total)


def bench_megafleet_aggregation(benchmark, report_rate):
    with tempfile.TemporaryDirectory() as workdir:
        store = build_store(workdir)
        summary = benchmark.pedantic(
            lambda: summarize_store(store, exact_cap=0),
            rounds=3, iterations=1, warmup_rounds=1,
        )
        assert summary.tasks == AGG_RECORDS
        assert summary.percentile_mode == "sketch"
        peak = check_aggregation_memory(store, AGG_RECORDS)
    report = report_rate("records/s", AGG_RECORDS)
    benchmark.extra_info["aggregation_peak_bytes"] = peak
    benchmark.extra_info["peak_rss_bytes"] = peak_rss_bytes()
    assert report.rate > 0


@pytest.mark.slow
def bench_megafleet_full_run(benchmark, report_rate):
    import multiprocessing

    spec = megafleet_spec()
    total = spec.session_count()
    jobs = max(2, multiprocessing.cpu_count())

    def run_full() -> int:
        with tempfile.TemporaryDirectory() as workdir:
            store = ShardedResultStore(Path(workdir) / "shards", bits=8)
            outcome = FleetRunner(spec, store, jobs=jobs).run()
            assert len(outcome.executed) == total
            summary = summarize_store(store)
            assert summary.tasks == total
            check_aggregation_memory(store, total)
            return total

    benchmark.pedantic(run_full, rounds=1, iterations=1, warmup_rounds=0)
    report_rate("sessions/s", total)
    benchmark.extra_info["peak_rss_bytes"] = peak_rss_bytes()


def main() -> None:
    spec = megafleet_spec()
    total = spec.session_count()
    with perf.Stopwatch() as clock:
        count = sum(1 for _ in spec.iter_tasks())
    assert count == total
    print(perf.measure_rate(
        "megafleet expansion", "tasks/s", total, clock.elapsed
    ).format())
    sampled = SampledCampaign(spec, SAMPLE_TARGET)
    with perf.Stopwatch() as clock:
        count = len(sampled.tasks())
    assert count == SAMPLE_KEPT
    print(perf.measure_rate(
        f"megafleet --sample {SAMPLE_TARGET}", "tasks/s", total, clock.elapsed
    ).format())
    with tempfile.TemporaryDirectory() as workdir:
        store = build_store(workdir)
        with perf.Stopwatch() as clock:
            summary = summarize_store(store, exact_cap=0)
        assert summary.tasks == AGG_RECORDS
        print(perf.measure_rate(
            "megafleet aggregation", "records/s", AGG_RECORDS, clock.elapsed
        ).format())
        peak = check_aggregation_memory(store, AGG_RECORDS)
        budget = memory_budget_bytes(AGG_RECORDS, len(store.shards))
        print(f"  aggregation peak memory: {peak:,} B "
              f"(O(shard) budget {budget:,} B)")
        print(f"  peak RSS: {peak_rss_bytes() / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
