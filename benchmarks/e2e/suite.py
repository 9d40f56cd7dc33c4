"""The four workloads of the end-to-end benchmark (why each: README.md).

Every workload is a closed loop over a fixed batch of simulated work: the
next session starts when the previous one has finished.  A workload
exposes three calls:

* ``prepare(seed)`` builds the inputs — everything a user pays before
  the first simulated step (construction, spec expansion) — and returns
  them;
* ``rep(inputs, index, traced)`` runs one timed repetition, slice
  ``index % slices`` of the workload: one long session for the two
  single-pair workloads, one of the four gateway scenarios, one
  sub-campaign of the fleet.  It returns a :class:`Rep` with the
  simulated statistics that form the digest and every correctness
  problem found;
* ``probe(inputs)`` runs one session and returns the messages it
  delivered (the caller measures its memory).

Workloads time their repetitions and sessions with their ``clock``
attribute, which the runner sets to its quiet-host clock; the fleet's
sessions are timed by its runner in the workers (``TaskRecord.wall_time``).
Sizes are constructor arguments, so tests run the same code at tiny size.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core import protocol
from repro.core.convergence import report_metrics
from repro.fleet import (
    FleetRunner,
    SampledCampaign,
    ShardedResultStore,
    megafleet_spec,
)
from repro.fleet import aggregate as fleet_aggregate
from repro.fleet import runner as fleet_runner
from repro.gateway import Gateway
from repro.net.delay import FixedDelay, UniformJitterDelay
from repro.net.loss import BernoulliLoss, NoLoss
from repro.netpath import PathPhase, PathProfile
from repro.obs.stream import StreamConfig
from repro.sim.trace import NULL_TRACE
from repro.workloads import scenarios


@dataclass
class Rep:
    """One timed repetition of a workload.

    Attributes:
        wall_s: time of the repetition (see the module docstring).
        delivered: distinct messages delivered (Σ ``delivered_uids``).
        session_s: time of every session in it.
        stats: JSON-safe simulated statistics (no wall-clock values).
        failed: sessions that errored or did not converge.
        problems: every failed correctness check, human-readable.
        extra: workload-specific measurements.
    """

    wall_s: float
    delivered: int
    session_s: list[float]
    stats: Any
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest(self.stats)


def digest(stats: Any) -> str:
    """SHA-256 over canonical JSON of simulated statistics."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pair_stats(harness: protocol.ProtocolHarness, report: Any) -> dict[str, Any]:
    """Every simulated statistic of one protected pair."""
    sender, receiver, link = harness.sender, harness.receiver, harness.link
    stats = report_metrics(report)
    stats["verdicts"] = {v.value: n for v, n in receiver.verdict_counts.items()}
    stats["link"] = [link.offered, link.delivered, link.dropped, link.injected,
                     link.blackholed, link.path_transitions]
    stats["sender"] = [sender.sent_total, sender.sends_suppressed, sender.s]
    stats["receiver"] = [receiver.delivered_total, receiver.integrity_failures,
                         receiver.dropped_while_down, receiver.right_edge]
    stats["stores"] = [
        [store.saves_started, store.saves_committed, store.saves_aborted,
         store.fetches, store.committed_value]
        for store in (sender.store, receiver.store)
    ]
    stats["resets"] = [
        [record.reset_time, record.fetched, record.resume_time]
        for record in sender.reset_records + receiver.reset_records
    ]
    if harness.adversary is not None:
        stats["adversary"] = [len(harness.adversary.recorded),
                              harness.adversary.injections]
    stats["events"] = harness.engine.events_processed
    return stats


class PairStream:
    """One protected pair from ``build_protocol`` defaults, no faults;
    each session streams ``messages`` clocked messages.

    Sessions are long so that the auditor's per-message retention shows
    in the peak resident set, as it does for a user's long stream.
    """

    slices = 1
    #: The time source of ``wall_s`` and ``session_s``; the runner
    #: sets its quiet-host clock.
    clock: Callable[[], float] = time.perf_counter

    def __init__(self, messages: int = 200_000) -> None:
        self.messages = messages

    def prepare(self, seed: int) -> int:
        protocol.build_protocol(trace=NULL_TRACE, seed=seed)
        return seed

    def rep(self, seed: int, index: int = 0, traced: bool = False) -> Rep:
        return self._session(seed, self.messages)

    def probe(self, seed: int) -> int:
        return self._session(seed, self.messages).delivered

    def _session(self, seed: int, messages: int) -> Rep:
        started = self.clock()
        harness = protocol.build_protocol(trace=NULL_TRACE, seed=seed)
        harness.sender.start_traffic(count=messages)
        harness.run()
        report = harness.score()
        wall = self.clock() - started
        audit = report.audit
        problems = []
        if not report.converged:
            problems.append(f"pair did not converge: {report.bound_violations}")
        if audit.delivered_uids != messages or audit.fresh_sent != messages:
            problems.append(f"delivered {audit.delivered_uids} of "
                            f"{audit.fresh_sent} sent, expected {messages}")
        return Rep(wall, audit.delivered_uids, [wall],
                   pair_stats(harness, report),
                   failed=int(bool(problems)), problems=problems)


#: pair_faults: how long a reset host stays down, the replayed span of
#: sequence numbers and its injection rate (a burst, so the newest
#: replays land while still inside the window).
DOWN_TIME = 200e-6
REPLAY_SPAN = 256
REPLAY_RATE = 1e7


class PairFaults:
    """ESP pair on a cycling calm/rough path with alternating resets.

    Resets alternate sender, receiver, ... every ``reset_every`` fresh
    sends; on each receiver wake a :class:`ReplayAdversary` replays the
    last ``REPLAY_SPAN`` sequence numbers the receiver has seen, so the
    window meets duplicates as well as stale packets.
    """

    slices = 1
    #: The time source of ``wall_s`` and ``session_s``; the runner
    #: sets its quiet-host clock.
    clock: Callable[[], float] = time.perf_counter

    def __init__(self, sends: int = 100_000, reset_every: int = 5_000) -> None:
        self.sends = sends
        self.reset_every = reset_every

    @staticmethod
    def path() -> PathProfile:
        return PathProfile(
            phases=(
                PathPhase("calm", duration=0.002, delay=FixedDelay(20e-6),
                          loss=NoLoss()),
                PathPhase("rough", duration=0.002,
                          delay=UniformJitterDelay(10e-6, 40e-6),
                          loss=BernoulliLoss(0.01), fifo=False, jitter=0.2),
            ),
            cycle=True,
        )

    def prepare(self, seed: int) -> tuple[int, PathProfile]:
        path = self.path()
        self._build(seed, path)
        return seed, path

    def rep(self, inputs: tuple[int, PathProfile], index: int = 0,
            traced: bool = False) -> Rep:
        return self._session(inputs, self.sends)

    def probe(self, inputs: tuple[int, PathProfile]) -> int:
        return self._session(inputs, self.sends).delivered

    @staticmethod
    def _build(seed: int, path: PathProfile) -> protocol.ProtocolHarness:
        return protocol.build_protocol(
            trace=NULL_TRACE, encap="esp", seed=seed, with_adversary=True,
            path=path,
        )

    def _session(self, inputs: tuple[int, PathProfile], sends: int) -> Rep:
        seed, path = inputs
        started = self.clock()
        harness = self._build(seed, path)
        sender, receiver, adversary = (
            harness.sender, harness.receiver, harness.adversary
        )
        every = self.reset_every

        def alternate_resets(sent_total: int, packet: Any) -> None:
            if sent_total % every == 0 and sent_total <= sends:
                side = sender if (sent_total // every) % 2 else receiver
                side.reset(down_for=DOWN_TIME)

        def replay_on_wake() -> None:
            edge = receiver.right_edge
            adversary.replay_range(edge - REPLAY_SPAN + 1, edge, rate=REPLAY_RATE)

        sender.add_send_listener(alternate_resets)
        receiver.add_resume_listener(replay_on_wake)
        # Attempts during a sender's down time and recovery are suppressed
        # (about 100 a reset); the slack keeps every reset, the last one's
        # recovery included, inside the stream.
        sender.start_traffic(count=sends + 200 * (sends // every) + 500)
        harness.run()
        report = harness.score(check_bounds=False)
        wall = self.clock() - started
        records = sender.reset_records + receiver.reset_records
        problems = []
        if report.replays_accepted:
            problems.append(f"{report.replays_accepted} replays accepted")
        if len(records) != sends // every:
            problems.append(f"{len(records)} resets, expected {sends // every}")
        if any(record.resume_time is None for record in records):
            problems.append("a reset host never resumed")
        if receiver.integrity_failures:
            problems.append(f"{receiver.integrity_failures} integrity failures")
        return Rep(wall, report.audit.delivered_uids, [wall],
                   pair_stats(harness, report),
                   failed=int(bool(problems)), problems=problems)


class GatewayRecovery:
    """``gateway_crash`` at ``n_sas`` SAs once per store policy, then a
    batched ``rolling_restart``; the sizing-rule K throughout.  Each
    scenario is one slice and one session, so a pass is one round of all
    four."""

    POLICIES = ("serial", "batched", "write_ahead")
    slices = len(POLICIES) + 1
    #: The time source of ``wall_s`` and ``session_s``; the runner
    #: sets its quiet-host clock.
    clock: Callable[[], float] = time.perf_counter

    def __init__(self, n_sas: int = 32, sends: int = 500) -> None:
        self.n_sas = n_sas
        self.sends = sends

    def prepare(self, seed: int) -> int:
        Gateway(n_sas=self.n_sas, seed=seed)
        return seed

    def rep(self, seed: int, index: int = 0, traced: bool = False) -> Rep:
        index %= self.slices
        common = {"n_sas": self.n_sas, "seed": seed,
                  "messages_after_reset": self.sends}
        started = self.clock()
        if index < len(self.POLICIES):
            label = f"gateway_crash/{self.POLICIES[index]}"
            metrics = scenarios.run_gateway_crash_scenario(
                store_policy=self.POLICIES[index],
                crash_after_sends=self.sends, **common)
        else:
            label = "rolling_restart/batched"
            metrics = scenarios.run_rolling_restart_scenario(
                store_policy="batched", restart_after_sends=self.sends,
                **common)
        wall = self.clock() - started
        problems = []
        if not metrics["converged"] or metrics["n_sas"] != self.n_sas:
            problems.append(f"{label}: not every SA converged "
                            f"{metrics['bound_violations'][:3]}")
        return Rep(wall, metrics["delivered_uids"], [wall], {label: metrics},
                   failed=int(bool(problems)), problems=problems)

    def probe(self, seed: int) -> int:
        return self.rep(seed, 1).delivered


@dataclass
class FleetPlan:
    """A fixed task list with the spec surface ``FleetRunner`` reads."""

    name: str
    max_events: int
    task_list: list[Any]

    def tasks(self) -> list[Any]:
        return list(self.task_list)


class FleetObserved:
    """What ``repro fleet --sample`` runs, observed and streamed.

    The sample is ``SampledCampaign(spec(base_seed=seed), sample)``, cut
    to the first tasks of every *kind* (scenario and parameters), the
    same number of each kind of a scenario, about ``per_scenario`` a
    scenario.  A session's cost depends on its kind (an 8-SA gateway
    crash costs many 2-SA ones), so every seed then runs the same work
    and the seed picks only the tasks and their simulation seeds.  The
    campaign runs as ``slices`` interleaved sub-campaigns (every
    ``slices``-th task), each with its own store, pool and obs directory.
    """

    def __init__(
        self,
        workdir: Path,
        per_scenario: int = 260,
        sample: int = 5_000,
        slices: int = 8,
        jobs: int = 2,
        spec: Callable[..., Any] = megafleet_spec,
    ) -> None:
        self.workdir = Path(workdir)
        self.per_scenario = per_scenario
        self.sample = sample
        self.slices = slices
        self.jobs = jobs
        self.spec = spec
        #: wall time of the last :meth:`prepare`'s spec expansion.
        self.expand_s = 0.0

    #: The time source of ``wall_s``; the runner sets its quiet-host clock.
    clock: Callable[[], float] = time.perf_counter

    def prepare(self, seed: int) -> list[FleetPlan]:
        started = time.perf_counter()
        spec = self.spec(base_seed=seed)
        sampled = SampledCampaign(spec, self.sample)
        tasks = sampled.tasks()
        kinds = {(task.scenario, json.dumps(task.params, sort_keys=True))
                 for task in tasks}
        per_scenario = Counter(scenario for scenario, _ in kinds)
        quota = {scenario: max(1, round(self.per_scenario / n))
                 for scenario, n in per_scenario.items()}
        kept: list[Any] = []
        counts: Counter = Counter()
        for task in tasks:
            kind = (task.scenario, json.dumps(task.params, sort_keys=True))
            if counts[kind] < quota[task.scenario]:
                counts[kind] += 1
                kept.append(task)
        short = sorted(kind for kind in kinds if counts[kind] < quota[kind[0]])
        missing = {grid.scenario for grid in spec.grids} - set(per_scenario)
        if short or missing:
            raise ValueError(f"seed {seed}: sample too small for "
                             f"{sorted(missing) + short}")
        self.expand_s = time.perf_counter() - started
        return [
            FleetPlan(f"{sampled.name}#{index}", sampled.max_events,
                      kept[index::self.slices])
            for index in range(self.slices)
        ]

    def rep(self, plans: list[FleetPlan], index: int = 0,
            traced: bool = False) -> Rep:
        plan = plans[index % self.slices]
        # The traced run keeps every span in this process.
        jobs = 1 if traced else self.jobs
        self.workdir.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.workdir))
        try:
            store = ShardedResultStore(work / "shards")
            fleet = FleetRunner(
                plan, store, jobs=jobs, obs_dir=work / "obs",
                stream=StreamConfig(ledger_path=work / "progress.jsonl"),
            )
            started = self.clock()
            records = fleet.run().executed
            summary = fleet_aggregate.summarize_store(store)
            wall = self.clock() - started
            obs_bytes = sum(
                path.stat().st_size
                for path in [work / "progress.jsonl", *(work / "obs").rglob("*")]
                if path.is_file()
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return self._score(plan, records, summary, wall, jobs, obs_bytes)

    def _score(self, plan: FleetPlan, records: list[Any], summary: Any,
               wall: float, jobs: int, obs_bytes: int) -> Rep:
        expected = len(plan.task_list)
        bad = [r for r in records
               if r.status != "ok" or not r.metrics.get("converged")]
        problems = [f"{r.task_id}: {r.status} {r.error or 'not converged'}"
                    for r in bad[:5]]
        if len(records) != expected:
            problems.append(f"{len(records)} records for {expected} tasks")
        counted = (summary.tasks, summary.ok, summary.converged)
        if counted != (expected,) * 3 or summary.errors:
            problems.append(f"summary counts {counted} errors "
                            f"{summary.errors}, expected {expected}")
        if summary.replays_accepted_total:
            problems.append(f"{summary.replays_accepted_total} replays accepted")
        by_scenario: dict[str, list[float]] = defaultdict(list)
        for record in records:
            by_scenario[record.scenario].append(record.wall_time)
        session_s = [record.wall_time for record in records]
        # Record metrics minus the obs rollup, which carries wall-clock
        # resource samples; the summary minus its wall-time total.
        stats = {
            "records": sorted(
                [r.task_id, r.scenario, r.params, r.seed, r.status,
                 {k: v for k, v in r.metrics.items() if k != "obs"}]
                for r in records
            ),
            "summary": {k: v for k, v in summary.as_dict().items()
                        if k != "wall_time_total"},
        }
        return Rep(
            wall,
            sum(r.metrics.get("delivered_uids", 0) for r in records),
            session_s,
            stats,
            failed=len(bad) + max(0, expected - len(records)),
            problems=problems,
            extra={
                "by_scenario": dict(by_scenario),
                "busy_frac": sum(session_s) / (jobs * wall),
                "obs_bytes": obs_bytes,
            },
        )

    def probe(self, plans: list[FleetPlan]) -> int:
        record = fleet_runner.execute_task(plans[0].task_list[0])
        return record.metrics.get("delivered_uids", 0)


#: name -> factory taking the directory the workload may write to.
WORKLOADS: dict[str, Callable[[Path], Any]] = {
    "pair_stream": lambda workdir: PairStream(),
    "pair_faults": lambda workdir: PairFaults(),
    "gateway_recovery": lambda workdir: GatewayRecovery(),
    "fleet_observed": lambda workdir: FleetObserved(workdir),
}
