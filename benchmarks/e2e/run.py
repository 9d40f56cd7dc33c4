"""End-to-end benchmark: four workloads, messages/s and sessions/s.

Run one workload from the repository root (each invocation is one fresh
process)::

    python3 benchmarks/e2e/run.py --workload pair_stream --seed 1
    python3 benchmarks/e2e/run.py --workload pair_stream --seed 1 --trace

The untraced run prints every end-to-end metric of BENCHMARK.json as
``name value unit``; ``--trace`` runs the workload with layer spans and
prints the per-layer metrics instead, plus a Chrome trace.  Both check the
simulated outputs, append the result to ``benchmarks/e2e/out/runs.jsonl``
and end with one JSON line; the exit code is 1 if any check failed.

Every time the untraced run reports is in seconds at the quiet host's
speed (:class:`QuietClock`); the traced run's are wall-clock.

Compare two sets of runs (the parent commit's and a change's)::

    python3 benchmarks/e2e/run.py compare PARENT.jsonl CHANGE.jsonl \\
        --claim msgs_per_s:pair_stream

See README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import time

#: setup_s counts the imports from here.
STARTED = time.perf_counter()

import argparse  # noqa: E402 - timed from STARTED
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from heapq import heappop, heappush  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Iterator  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is timed in this process and in ``SETUP_SAMPLES - 1`` fresh
#: ones; setup_s is the median, so every sample starts cold.
SETUP_SAMPLES = 3

#: What the fastest of three :func:`reference_kernel` runs takes when the
#: host is quiet, on the 2-vCPU Xeon (Python 3.11.7) the benchmark was
#: written on; it makes a quiet-host second read like a wall second there.
REFERENCE_S = 1.0e-3


def reference_kernel(n: int = 2_000) -> int:
    """Fixed interpreter work: heap, dict and tuple churn like the engine's."""
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        heappush(heap, (key, i))
        table[key] = table.get(key, 0) + 1
        if i & 1:
            total += heappop(heap)[0]
    return total + len(table)


class QuietClock:
    """Seconds of work at the quiet host's speed.

    The shared host slows one CPU or the other by up to ~1.4x for seconds
    at a time, and CPU time slows with wall time (README "Times").  While
    the clock runs, a SIGALRM every ``INTERVAL`` wall seconds reads the
    speed: by default :data:`REFERENCE_S` over the time of
    :func:`reference_kernel` on the CPU this process is on.  The clock
    advances by the wall time since the last reading times the mean of
    the two readings' speeds; the readings themselves do not count.

    Args:
        since: the wall time the clock counts from (default: now), at the
            speed of the first reading until it is taken.
        speed: reads the speed in place of the kernel (a
            :class:`WorkerSpeed` for a parent whose work runs in workers).
        report: a :class:`WorkerSpeed` every measured interval is added to.
    """

    INTERVAL = 0.1

    def __init__(self, since: float | None = None,
                 speed: Callable[[], float] | None = None,
                 report: "WorkerSpeed | None" = None) -> None:
        self.since = since
        self.speed = speed or read_speed
        self.report = report

    def __enter__(self) -> "QuietClock":
        before = time.perf_counter()
        speed = self.speed()
        since = before if self.since is None else self.since
        #: (quiet seconds so far, wall time they run to, speed); replaced
        #: whole, so :meth:`now` reads it in one step.
        self.state = ((before - since) * speed, time.perf_counter(), speed)
        self.work_wall = before - since
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        #: Quiet seconds from start to stop.
        self.elapsed = self.now()
        self.work_wall += time.perf_counter() - self.state[1]
        #: Quiet seconds per wall second of work: 1 on a quiet host.
        self.host_scale = self.elapsed / self.work_wall

    def now(self) -> float:
        while True:
            state = self.state
            wall = time.perf_counter()
            if state is self.state:
                total, mark, speed = state
                return total + (wall - mark) * speed

    def _tick(self, signum: int, frame: Any) -> None:
        total, mark, speed = self.state
        wall = time.perf_counter()
        reading = self.speed()
        quiet = (wall - mark) * (speed + reading) / 2
        if self.report is not None:
            self.report.add(wall - mark, quiet)
        self.work_wall += wall - mark
        self.state = (total + quiet, time.perf_counter(), reading)


def read_speed() -> float:
    """This CPU's speed now: :data:`REFERENCE_S` over the fastest of three
    :func:`reference_kernel` runs."""
    collecting = gc.isenabled()
    gc.disable()  # a collection here would be the workload's work
    try:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return REFERENCE_S / best


class WorkerSpeed:
    """The speed of the CPUs the fleet's workers run on, as they read it.

    Each worker's clock adds the wall and quiet seconds of every interval
    it measures; called in the parent, this returns the ratio of what the
    workers added since the last call (the last ratio while none ran).
    The parent does not time the kernel itself: on CPUs busy with workers
    its readings would wait for them.
    """

    def __init__(self) -> None:
        self.sums = multiprocessing.RawArray("d", 2)  # wall, quiet
        self.lock = multiprocessing.Lock()
        self.seen = (0.0, 0.0)
        self.last = read_speed()

    def add(self, wall: float, quiet: float) -> None:
        # A timeout, so a worker killed holding the lock stalls no one.
        if self.lock.acquire(timeout=0.01):
            self.sums[0] += wall
            self.sums[1] += quiet
            self.lock.release()

    def __call__(self) -> float:
        if self.lock.acquire(timeout=0.01):
            wall, quiet = self.sums[0], self.sums[1]
            self.lock.release()
            if wall > self.seen[0]:
                self.last = (quiet - self.seen[1]) / (wall - self.seen[0])
            self.seen = (wall, quiet)
        return self.last


class WorkerTime:
    """The ``time`` module as the fleet runner's workers should see it.

    ``FleetRunner`` times each session with ``time.perf_counter`` in the
    worker that runs it.  With this object in place of the runner
    module's ``time``, a forked worker reads a :class:`QuietClock` of its
    own instead, reporting to ``speed``, so every record's ``wall_time``
    is in quiet-host seconds of that worker's CPU; the parent and the
    rest of ``time`` are unchanged.
    """

    def __init__(self, speed: WorkerSpeed) -> None:
        self.parent = os.getpid()
        self.speed = speed
        self.clock: QuietClock | None = None

    def __getattr__(self, name: str) -> Any:
        return getattr(time, name)

    def perf_counter(self) -> float:
        if os.getpid() == self.parent:
            return time.perf_counter()
        if self.clock is None:
            self.clock = QuietClock(report=self.speed).__enter__()
        return self.clock.now()


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, linearly interpolated."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any finished child, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024


def timed_reps(workload: Any, inputs: Any, seconds: float, traced: bool,
               after_each: Any = None) -> list[Any]:
    """Whole passes over the workload's slices, at least one, until the
    run is as close to ``seconds`` as whole passes allow."""
    reps: list[Any] = []
    started = time.perf_counter()
    while True:
        reps.append(workload.rep(inputs, len(reps), traced))
        if after_each is not None:
            after_each()
        # A simulation is a web of cycles: without this, the last one can
        # still be alive while the next builds, and the peak resident set
        # is sometimes one simulation, sometimes two.
        gc.collect()
        passes, partial = divmod(len(reps), workload.slices)
        elapsed = time.perf_counter() - started
        if not partial and elapsed + elapsed / passes / 2 >= seconds:
            return reps


def check_reps(reps: list[Any], slices: int, problems: list[str]) -> str:
    """Collect the reps' problems and return the digest of one pass over
    the slices; a repeated slice must simulate exactly as it did first."""
    import suite

    for rep in reps:
        problems.extend(rep.problems)
    first = [rep.digest for rep in reps[:slices]]
    for index, rep in enumerate(reps[slices:], start=slices):
        if rep.digest != first[index % slices]:
            problems.append(f"repetition {index} simulated differently")
    return first[0] if slices == 1 else suite.digest(first)


def end_to_end(reps: list[Any], slices: int) -> dict[str, float]:
    """Every end-to-end metric but setup_s; a rate is its total over a
    pass's time, the median over passes."""
    passes = [reps[at:at + slices] for at in range(0, len(reps), slices)]

    def rate(count: Callable[[Any], int]) -> float:
        return statistics.median(
            sum(count(rep) for rep in group) / sum(rep.wall_s for rep in group)
            for group in passes)

    sessions = [s for rep in reps for s in rep.session_s]
    return {
        "msgs_per_s": rate(lambda rep: rep.delivered),
        "sessions_per_s": rate(lambda rep: len(rep.session_s)),
        "session_p50_ms": percentile(sessions, 50) * 1e3,
        "session_p99_ms": percentile(sessions, 99) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


@contextlib.contextmanager
def quiet_clock(workload: Any) -> Iterator[QuietClock]:
    """Run ``workload`` on a quiet clock: this process's for work in this
    process; for the fleet, each worker's own for its sessions and the
    workers' speed for the sub-campaigns."""
    jobs = getattr(workload, "jobs", 1)
    speed = None
    if jobs > 1:
        import repro.fleet.runner as fleet_runner

        speed = WorkerSpeed()
        fleet_runner.time = WorkerTime(speed)
    try:
        with QuietClock(speed=speed) as clock:
            workload.clock = clock.now
            try:
                yield clock
            finally:
                del workload.clock
    finally:
        if jobs > 1:
            fleet_runner.time = time


def setup_child(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process running ``--setup-only``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(workload: Any, inputs: Any, setup_s: float, name: str, seed: int,
            seconds: float) -> dict[str, Any]:
    """The untraced run: every end-to-end metric."""
    setups = [setup_s]
    with quiet_clock(workload) as clock:
        reps = timed_reps(workload, inputs, seconds, False)
    problems: list[str] = []
    sim_digest = check_reps(reps, workload.slices, problems)
    # Peak RSS is read before the set-up children run, so it is the
    # workload's alone.
    metrics = end_to_end(reps, workload.slices)
    setups += [setup_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]
    metrics["setup_s"] = statistics.median(setups)
    sessions = sum(len(rep.session_s) for rep in reps)
    return {
        "metrics": metrics,
        "host_scale": clock.host_scale,
        "digest": sim_digest,
        "problems": problems,
        "attempted": sessions,
        "failed": sum(rep.failed for rep in reps),
        "samples": {"sessions": sessions, "reps": len(reps),
                    "setups": len(setups)},
    }


def measure_traced(workload: Any, inputs: Any, seconds: float,
                   trace_path: Path) -> dict[str, Any]:
    """The traced run: per-layer metrics, after an untraced baseline."""
    import spans

    tracer = spans.Tracer()
    baseline = timed_reps(workload, inputs, seconds / 4, False)
    tracemalloc.start()
    try:
        probed = workload.probe(inputs)
        retained = tracemalloc.get_traced_memory()[1] / max(1, probed)
    finally:
        tracemalloc.stop()
    tracer.calibrate()
    tracer.install()
    try:
        reps = timed_reps(workload, inputs, seconds, True,
                          after_each=tracer.harvest)
    finally:
        tracer.uninstall()
    problems: list[str] = []
    sim_digest = check_reps(reps, workload.slices, problems)
    if check_reps(baseline, workload.slices, problems) != sim_digest:
        problems.append("traced and untraced runs simulate differently")
    tracer.write_chrome(trace_path)
    metrics = layer_metrics(tracer, workload.slices, baseline, reps, retained,
                            getattr(workload, "expand_s", 0.0))
    print("spans, wall-clock ms with the wrapper cost removed:")
    print(f"{'span':36} {'calls':>10} {'total ms':>11} {'self ms':>11}")
    for name, calls, total_ms, self_ms in tracer.layer_table():
        print(f"{name:36} {calls:>10} {total_ms:>11.1f} {self_ms:>11.1f}")
    print(f"chrome trace: {trace_path}")
    return {
        "metrics": metrics,
        "digest": sim_digest,
        "problems": problems,
        "attempted": sum(len(rep.session_s) for rep in baseline + reps),
        "failed": sum(rep.failed for rep in baseline + reps),
        "samples": {"reps": len(reps), "spans": len(tracer.spans)},
    }


def layer_metrics(tracer: Any, slices: int, baseline: list[Any],
                  reps: list[Any], retained_bytes_per_msg: float,
                  expand_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced repetitions (names: BENCHMARK.json).

    Counts are per pass over the workload's slices (one pair session, one
    gateway round, one whole fleet campaign).  Times are corrected for the
    wrapper cost.
    """
    passes = len(reps) / slices
    msgs = sum(rep.delivered for rep in reps)
    sessions = sum(len(rep.session_s) for rep in reps)
    counts, peaks = tracer.counts, tracer.peaks

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def self_per_call(name: str) -> float:
        return ratio(tracer.self_ns(name), tracer.calls(name))

    def total_per_call(name: str) -> float:
        return ratio(tracer.total_ns(name), tracer.calls(name))

    def per_msg(group: list[Any]) -> float:
        """Median over passes of session time per delivered message."""
        return statistics.median(
            sum(sum(rep.session_s) for rep in group[at:at + slices])
            / sum(rep.delivered for rep in group[at:at + slices])
            for at in range(0, len(group), slices)
        )

    # A fleet session is execute_task in a worker, so only the spans
    # beneath it run inside session time; elsewhere every span does.
    if tracer.calls("fleet.session"):
        inside = tracer.stats["fleet.session"][3]
    else:
        inside = sum(stat[0] for stat in tracer.stats.values())
    untraced_per_msg = per_msg(baseline)
    traced_per_msg = per_msg(reps)
    corrected_per_msg = traced_per_msg - ratio(
        inside * tracer.wrapper_ns * 1e-9, msgs)
    by_scenario: dict[str, list[float]] = {}
    for rep in baseline:
        for scenario, walls in rep.extra.get("by_scenario", {}).items():
            by_scenario.setdefault(scenario, []).extend(walls)
    metrics = {
        "sim.engine.self_ns_per_msg": ratio(
            tracer.self_ns("sim.engine.run"), msgs),
        "sim.engine.events_per_msg": ratio(counts["sim.engine.events"], msgs),
        "net.link.send_ns": self_per_call("net.link.send"),
        "net.link.deliver_ns": self_per_call("net.link.deliver"),
        "net.link.delivered_frac": ratio(counts["net.link.delivered"],
                                         counts["net.link.offered"]),
        "netpath.transitions": counts["netpath.transitions"] / passes,
        "net.adversary.recorded": counts["net.adversary.recorded"] / passes,
        "net.adversary.injections": counts["net.adversary.injections"] / passes,
        "core.encap.seal_ns": self_per_call("core.encap.seal"),
        "core.encap.open_ns": self_per_call("core.encap.open"),
        "ipsec.replay_window.update_ns": self_per_call("ipsec.replay_window.update"),
        "core.sender.self_ns_per_send": self_per_call("core.sender.send_one"),
        "core.sender.suppressed_frac": ratio(
            counts["core.sender.suppressed"],
            counts["core.sender.sent"] + counts["core.sender.suppressed"],
        ),
        "core.receiver.self_ns_per_msg": self_per_call("core.receiver.on_receive"),
        "core.receiver.buffered": counts["core.receiver.buffered"] / passes,
        "core.receiver.dropped_down": counts["core.receiver.dropped_down"] / passes,
        "core.audit.ns_per_msg": ratio(
            (tracer.self_ns("core.audit.register_send")
             + tracer.self_ns("core.audit.note_processed")), msgs),
        "core.audit.score_ms": ratio(
            tracer.total_ns("core.audit.score"), sessions) / 1e6,
        "core.retained_bytes_per_msg": retained_bytes_per_msg,
        "core.persistent.begin_save_ns": self_per_call("core.persistent.begin_save"),
        "core.persistent.saves": counts["core.persistent.saves"] / passes,
        "core.persistent.saves_aborted": (
            counts["core.persistent.saves_aborted"] / passes),
        "core.persistent.fetches": counts["core.persistent.fetches"] / passes,
        "gateway.build_ms": total_per_call("gateway.build") / 1e6,
        "gateway.store.device_writes": (
            counts["gateway.store.device_writes"] / passes),
        "gateway.store.batches": counts["gateway.store.batches"] / passes,
        "gateway.store.max_fetch_wait_us": (
            peaks.get("gateway.store.max_fetch_wait", 0.0) * 1e6),
        "workloads.build_ms_per_session": ratio(
            (tracer.total_ns("workloads.build")
             + tracer.total_ns("gateway.build")), sessions) / 1e6,
        "fleet.spec.expand_s": expand_s,
        "fleet.worker_busy_frac": statistics.median(
            rep.extra.get("busy_frac", 0.0) for rep in baseline),
        "fleet.results.append_us": total_per_call("fleet.results.append") / 1e3,
        "fleet.aggregate.summarize_ms": (
            total_per_call("fleet.aggregate.summarize") / 1e6),
        "obs.export_ns_per_session": ratio(
            tracer.total_ns("obs.export"), sessions),
        "obs.stream.emit_us": total_per_call("obs.stream.emit") / 1e3,
        "obs.stream.events": tracer.calls("obs.stream.emit") / passes,
        "obs.bytes_per_session": ratio(
            sum(rep.extra.get("obs_bytes", 0) for rep in reps), sessions),
        "trace.overhead_frac": ratio(traced_per_msg, untraced_per_msg) - 1,
        "trace.wrapper_ns": tracer.wrapper_ns,
        "trace.accounted_frac": ratio(corrected_per_msg, untraced_per_msg),
    }
    for verdict in ("accept_advance", "accept_in_window", "duplicate", "stale"):
        name = f"ipsec.replay_window.verdict_{verdict}"
        metrics[name] = counts[name] / passes
    for scenario in ("sender_reset", "receiver_reset", "loss_reset",
                     "gateway_crash"):
        walls = by_scenario.get(scenario)
        metrics[f"fleet.session_ms_p50.{scenario}"] = (
            statistics.median(walls) * 1e3 if walls else 0.0
        )
    return metrics


def run_workload(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    out = Path(args.out)
    # Set-up runs from the top of this file to the first timed step.
    with QuietClock(since=STARTED) as setup:
        import suite

        if args.workload not in suite.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; known: "
                  f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
            return 2
        workload = suite.WORKLOADS[args.workload](out / "work")
        inputs = workload.prepare(args.seed)
    if args.setup_only:
        print(setup.elapsed)
        return 0
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.trace:
        result = measure_traced(
            workload, inputs, seconds,
            out / f"trace-{args.workload}-s{args.seed}.json",
        )
        declared = bench["per_layer"]
    else:
        result = measure(workload, inputs, setup.elapsed, args.workload,
                         args.seed, seconds)
        declared = bench["end_to_end"]

    from repro.perf import machine_score

    metrics = result["metrics"]
    missing = [spec["name"] for spec in declared if spec["name"] not in metrics]
    if missing:
        result["problems"].append(f"metrics not measured: {missing}")
    for spec in declared:
        print(f"{spec['name']} {metrics.get(spec['name'], float('nan')):.6g} "
              f"{spec['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate {failed / max(1, attempted):.6g} failed/attempted "
          f"({failed}/{attempted})")
    print(f"samples {json.dumps(result['samples'])}")
    print(f"sim_digest {result['digest']}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"] and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(bool(args.trace)),
        "seconds": seconds,
        "metrics": metrics,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "digest": result["digest"],
        "samples": result["samples"],
        "problems": result["problems"],
        # Quiet-host seconds per wall second of the timed section.
        "host_scale": result.get("host_scale"),
        # Provenance only: no metric is normalized by it.
        "machine_score": machine_score(),
    }
    out.mkdir(parents=True, exist_ok=True)
    with (out / "runs.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": metrics.get(spec["name"]), "unit": spec["unit"]}
            for spec in declared
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# compare: the parent/change rule (README.md "Comparing two commits")
# ----------------------------------------------------------------------
#: A claimed gain needs this many pairs and this share of wins.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict[str, dict[int, dict[str, Any]]]:
    """Untraced runs of a runs.jsonl file: workload -> seed -> last run."""
    runs: dict[str, dict[int, dict[str, Any]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            run = json.loads(line)
            if not run["trace"]:
                runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def judge(spec: dict[str, Any], pairs: list[tuple[float, float]],
          claimed: bool) -> tuple[str, dict[str, Any]]:
    """One metric on one workload: improved, unchanged, unresolved or
    regressed (choosing-metrics §8 for a claim, the bound otherwise)."""
    sign = 1 if spec["better"] == "higher" else -1
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                 else (p_med, p_med, p_med))
    gain = sign * (c_med - p_med)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
           and gain > q3 - q1)
    regressed = -gain > spec["bound"] * abs(p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if regressed:
        verdict = "regressed"
    elif won:
        verdict = "improved"
    elif claimed or ((q3 - q1) > spec["bound"] * abs(p_med) and not all_better):
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return verdict, {"parent": p_med, "parent_iqr": q3 - q1, "change": c_med,
                     "wins": wins, "pairs": len(pairs)}


def compare(argv: list[str], bench: dict[str, Any]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent", help="runs.jsonl of the parent commit")
    parser.add_argument("change", help="runs.jsonl of the change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD",
                        help="the gain the change claims (repeatable)")
    args = parser.parse_args(argv)
    claims: set[tuple[str, str]] = set()
    for claim in args.claim:
        name, colon, workload = claim.partition(":")
        if not (name and colon and workload):
            parser.error(f"--claim {claim!r} is not METRIC:WORKLOAD")
        claims.add((name, workload))
    parent, change = load_runs(args.parent), load_runs(args.change)
    ok = True
    judged: set[tuple[str, str]] = set()
    print(f"{'workload':17} {'metric':15} {'parent':>12} {'iqr':>9} "
          f"{'change':>12} {'delta':>8} {'wins':>6}  verdict")
    for workload in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not seeds:
            print(f"{workload:17} no seed run on both sides")
            ok = False
            continue
        runs = [(parent[workload][s], change[workload][s]) for s in seeds]
        for p_run, c_run in runs:
            if p_run["digest"] != c_run["digest"]:
                print(f"{workload:17} seed {p_run['seed']}: sim_digest differs "
                      "— the change alters the simulation")
                ok = False
            if not (p_run["correct"] and c_run["correct"]):
                print(f"{workload:17} seed {p_run['seed']}: a run failed its checks")
                ok = False
        for spec in bench["end_to_end"]:
            name = spec["name"]
            pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in runs]
            claimed = (name, workload) in claims
            judged.add((name, workload))
            verdict, row = judge(spec, pairs, claimed)
            delta = row["change"] / row["parent"] - 1 if row["parent"] else 0.0
            print(f"{workload:17} {name:15} {row['parent']:>12.5g} "
                  f"{row['parent_iqr']:>9.3g} {row['change']:>12.5g} "
                  f"{delta:>+8.1%} {row['wins']:>2}/{row['pairs']:<3}  "
                  f"{verdict}{' (claimed)' if claimed else ''}")
            if verdict == "regressed" or (claimed and verdict != "improved"):
                ok = False
    for name, workload in sorted(claims - judged):
        print(f"claim {name}:{workload} was not judged: no end-to-end metric "
              f"{name!r} with runs of workload {workload!r} on both sides")
        ok = False
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        bench = load_benchmark()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        return compare(argv[1:], bench)
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run with spans")
    parser.add_argument("--out", default=str(OUT),
                        help="where runs.jsonl and traces go")
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up; print the seconds from process "
                             "start (one setup_s sample)")
    return run_workload(parser.parse_args(argv), bench)


if __name__ == "__main__":
    sys.exit(main())
