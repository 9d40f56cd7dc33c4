"""Shared benchmark timing and machine-normalized rate reporting.

Every ``benchmarks/bench_m*`` file reports throughput through this module
so the numbers are comparable across files *and* across machines:

* :class:`Stopwatch` — a ``with``-block wall-clock timer.
* :func:`machine_score` — a quick calibration of the host: millions of
  heap-push/pop operations per second on the same kind of
  ``(int, int)``-tuple heap the simulation engine runs on.  Dividing a
  raw rate by the score yields a *normalized* rate that is stable across
  hosts of different speeds (the workload and the calibration scale
  together), which is what the CI regression gate compares.
* :class:`RateReport` / :func:`measure_rate` — one stable reporting line
  per benchmark: raw events/s or sessions/s plus the normalized rate.
* :func:`check_report` / :func:`main` — the CI gate:
  ``python -m repro.perf check BENCH.json --baseline baseline.json``
  reads pytest-benchmark JSON output, normalizes each entry's rate by the
  machine score stamped into it when it was captured (calibrating this
  host only for an entry that carries none), prints the signed
  percentage delta per gated benchmark, and fails if any gated benchmark
  dropped more than the baseline's tolerance below its checked-in
  normalized rate.  Exit codes are distinct so CI can tell failure
  modes apart: 0 ok, 1 regression, 2 a gated benchmark is absent from
  the results JSON, 3 the baseline file itself is missing or unreadable
  (see ``EXIT_*``).
  ``python -m repro.perf update`` refreshes the baseline in place after
  an intentional perf change.

The baseline file (checked in under ``benchmarks/baselines/``) maps each
gated benchmark name to the per-round workload size (``count``) and the
``normalized_rate`` captured when the baseline was seeded::

    {
      "metric": "events/s",
      "tolerance": 0.20,
      "benchmarks": {
        "bench_engine_event_rate": {"count": 50000, "normalized_rate": 123.4}
      }
    }
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path
from typing import Any


def current_git_sha() -> str | None:
    """The commit the working tree is at, or ``None`` outside a repo.

    Prefers ``GITHUB_SHA`` (set on every Actions runner, and correct in
    detached checkouts) over asking git, so provenance works even when
    the ``git`` binary is unavailable.  Stamped into every
    :class:`RateReport` and every run snapshot.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class Stopwatch:
    """Wall-clock context-manager timer.

    ``elapsed`` reads the running total mid-block and the final duration
    after the block exits::

        with Stopwatch() as clock:
            work()
        rate = jobs / clock.elapsed
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._elapsed = None
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self._start is not None
        self._elapsed = time.perf_counter() - self._start

    @property
    def elapsed(self) -> float:
        """Seconds elapsed (running total while the block is active)."""
        if self._elapsed is not None:
            return self._elapsed
        if self._start is None:
            raise RuntimeError("Stopwatch has not been started")
        return time.perf_counter() - self._start


# ----------------------------------------------------------------------
# Machine calibration
# ----------------------------------------------------------------------
_CALIBRATION_OPS = 100_000
_CALIBRATION_ROUNDS = 3
_machine_score: float | None = None


def _calibration_workload(ops: int) -> int:
    """Heap churn shaped like the engine hot path: push ``(key, seq)``
    tuples, pop half along the way, drain at the end."""
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(ops):
        heappush(heap, ((i * 2654435761) & 0xFFFFF, i))
        if i & 1:
            total += heappop(heap)[0]
    while heap:
        total += heappop(heap)[0]
    return total


def machine_score(recalibrate: bool = False) -> float:
    """Millions of calibration heap-ops per second on this host.

    Best of :data:`_CALIBRATION_ROUNDS` timed rounds (the minimum is the
    least noisy estimator of what the machine can do), cached for the
    process lifetime.
    """
    global _machine_score
    if _machine_score is None or recalibrate:
        best = min(
            _timed_calibration_round() for _ in range(_CALIBRATION_ROUNDS)
        )
        _machine_score = _CALIBRATION_OPS / best / 1e6
    return _machine_score


def _timed_calibration_round() -> float:
    started = time.perf_counter()
    _calibration_workload(_CALIBRATION_OPS)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Rate reporting
# ----------------------------------------------------------------------
#: Schema tag stamped into :meth:`RateReport.as_dict` exports.
RATE_SCHEMA = "repro.perf/rate@1"


@dataclass(frozen=True)
class RateReport:
    """One benchmark's throughput, raw and machine-normalized.

    Attributes:
        name: benchmark identifier (the ``bench_*`` function name).
        metric: unit of ``count`` per second (``"events/s"``, ...).
        count: work items completed in ``seconds``.
        seconds: wall time for ``count`` items.
        score: the :func:`machine_score` used for normalization.
        git_sha: the commit the numbers were captured at (provenance;
            ``None`` outside a repo).
    """

    name: str
    metric: str
    count: int
    seconds: float
    score: float
    git_sha: str | None = None

    @property
    def rate(self) -> float:
        """Raw items per second."""
        return self.count / self.seconds

    @property
    def normalized(self) -> float:
        """Machine-normalized rate (items per million calibration ops)."""
        return self.rate / self.score

    def format(self) -> str:
        """The stable one-line report all bench files print."""
        return (
            f"{self.name}: {self.rate:,.0f} {self.metric} "
            f"(normalized {self.normalized:,.1f} @ machine score "
            f"{self.score:.2f})"
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe export, carried into pytest-benchmark ``extra_info``.

        The ``schema`` tag makes uploaded BENCH_*.json artifacts
        self-describing: a consumer can tell these fields came from this
        reporter (and which revision of it) without guessing from shape.
        """
        return {
            "schema": RATE_SCHEMA,
            "name": self.name,
            "metric": self.metric,
            "count": self.count,
            "seconds": self.seconds,
            "rate": self.rate,
            "machine_score": self.score,
            "normalized_rate": self.normalized,
            "git_sha": self.git_sha,
        }


def measure_rate(
    name: str, metric: str, count: int, seconds: float
) -> RateReport:
    """Build a :class:`RateReport` using the cached machine score."""
    return RateReport(
        name=name, metric=metric, count=count, seconds=seconds,
        score=machine_score(), git_sha=current_git_sha(),
    )


# ----------------------------------------------------------------------
# Baselines and the CI gate
# ----------------------------------------------------------------------
#: Gate exit codes.  Kept distinct so CI steps can branch on the failure
#: mode: a regression wants a red build, a missing baseline usually
#: means a bootstrap/update step should run instead.
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_MISSING_BENCH = 2
EXIT_MISSING_BASELINE = 3


@dataclass(frozen=True)
class GateResult:
    """Verdict for one gated benchmark.

    ``current_raw`` is the un-normalized rate of the capture host — not
    gated (it is machine-dependent), but printed so a green run still
    reports what the hardware actually did; ``score`` is the machine
    score it was normalized by.
    """

    name: str
    current_normalized: float
    baseline_normalized: float
    floor: float
    current_raw: float | None = None
    score: float | None = None

    @property
    def ok(self) -> bool:
        return self.current_normalized >= self.floor

    @property
    def ratio(self) -> float:
        return self.current_normalized / self.baseline_normalized

    @property
    def delta_pct(self) -> float:
        """Signed percent change vs the baseline (+4.2 means 4.2% faster)."""
        return (self.ratio - 1.0) * 100.0

    def format(self) -> str:
        verdict = "ok" if self.ok else "REGRESSION"
        arrow = "↑" if self.delta_pct >= 0 else "↓"
        raw = (
            f" [{self.current_raw:,.0f} raw]"
            if self.current_raw is not None else ""
        )
        if self.score is not None:
            raw += f" @ score {self.score:.2f}"
        return (
            f"  {self.name}: normalized {self.current_normalized:,.1f} "
            f"vs baseline {self.baseline_normalized:,.1f} "
            f"({arrow}{self.delta_pct:+.1f}%, floor {self.floor:,.1f})"
            f"{raw} {verdict}"
        )


def load_benchmark_json(path: Path) -> dict[str, float]:
    """Map benchmark name -> best-round seconds from pytest-benchmark JSON.

    The per-round minimum is used: it is the least noisy estimator on a
    shared CI runner (the mean absorbs scheduler hiccups).
    """
    data = json.loads(path.read_text())
    times: dict[str, float] = {}
    for entry in data.get("benchmarks", []):
        times[entry["name"]] = entry["stats"]["min"]
    return times


def load_benchmark_provenance(path: Path) -> dict[str, dict[str, Any]]:
    """Map benchmark name -> :data:`RATE_SCHEMA` provenance payload.

    Only entries whose ``extra_info`` carries the schema tag are
    returned — those are the ones the ``report_rate`` fixture stamped
    with the capture-time machine score and git sha.
    """
    data = json.loads(path.read_text())
    provenance: dict[str, dict[str, Any]] = {}
    for entry in data.get("benchmarks", []):
        extra = entry.get("extra_info") or {}
        if extra.get("schema") == RATE_SCHEMA:
            provenance[entry["name"]] = dict(extra)
    return provenance


def load_capture_scores(path: Path) -> dict[str, float]:
    """Map benchmark name -> the machine score it was captured at.

    The ``report_rate`` fixture stamps its process's :func:`machine_score`
    into every entry's :data:`RATE_SCHEMA` payload, and the stamped
    ``normalized_rate`` (what the bench printed) is the raw rate over
    that score.  Entries without a positive stamped score are absent.
    """
    scores: dict[str, float] = {}
    for name, info in load_benchmark_provenance(path).items():
        captured = info.get("machine_score")
        if isinstance(captured, (int, float)) and captured > 0:
            scores[name] = float(captured)
    return scores


def check_report(
    bench_times: dict[str, float],
    baseline: dict[str, Any],
    tolerance: float | None = None,
    score: float | None = None,
    captured: dict[str, float] | None = None,
) -> tuple[list[GateResult], list[str]]:
    """Compare measured benchmark times against a baseline.

    Args:
        bench_times: name -> seconds per round (see
            :func:`load_benchmark_json`).
        baseline: parsed baseline file (``benchmarks`` maps gated names to
            ``{"count": N, "normalized_rate": R}``).
        tolerance: allowed fractional drop; defaults to the baseline's
            ``tolerance`` (and to 0.20 if the file has none).
        score: machine score for entries with no ``captured`` score
            (tests pass it); defaults to calibrating the current host,
            once, and only if some entry needs it.
        captured: name -> the machine score each entry was captured at
            (see :func:`load_capture_scores`).  Normalizing by it gives
            the gate the same number the bench printed, on any host.

    Returns:
        ``(results, missing)`` — verdicts for every gated benchmark found,
        and the names of gated benchmarks absent from ``bench_times``.
    """
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", 0.20))
    captured = captured or {}
    results: list[GateResult] = []
    missing: list[str] = []
    for name, spec in baseline["benchmarks"].items():
        if name not in bench_times:
            missing.append(name)
            continue
        entry_score = captured.get(name)
        if entry_score is None:
            if score is None:
                score = machine_score()
            entry_score = score
        raw = spec["count"] / bench_times[name]
        base = float(spec["normalized_rate"])
        results.append(
            GateResult(
                name=name,
                current_normalized=raw / entry_score,
                baseline_normalized=base,
                floor=base * (1.0 - tolerance),
                current_raw=raw,
                score=entry_score,
            )
        )
    return results, missing


def _load_baseline(path: Path) -> dict[str, Any] | None:
    """Parse a baseline file; ``None`` (not an exception) if it is
    missing or unreadable, so the CLI can exit :data:`EXIT_MISSING_BASELINE`
    instead of a traceback."""
    try:
        baseline = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read baseline {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(baseline.get("benchmarks"), dict):
        print(f"error: baseline {path} has no 'benchmarks' mapping",
              file=sys.stderr)
        return None
    return baseline


def _cmd_check(args: argparse.Namespace) -> int:
    baseline = _load_baseline(Path(args.baseline))
    if baseline is None:
        print("restore the checked-in baseline (benchmarks/baselines/) or "
              "seed one, then re-run the gate", file=sys.stderr)
        return EXIT_MISSING_BASELINE
    bench_json = Path(args.bench_json)
    results, missing = check_report(
        load_benchmark_json(bench_json), baseline,
        tolerance=args.tolerance, captured=load_capture_scores(bench_json),
    )
    metric = baseline.get("metric", "items/s")
    print(f"perf gate: {args.bench_json} vs {args.baseline} ({metric}, "
          "each rate normalized by the machine score it was captured at)")
    for result in results:
        print(result.format())
    if missing:
        print(f"error: gated benchmarks missing from {args.bench_json}: "
              f"{', '.join(missing)}", file=sys.stderr)
        return EXIT_MISSING_BENCH
    failed = [result for result in results if not result.ok]
    if failed:
        print(f"FAILED: {len(failed)} benchmark(s) regressed more than "
              f"{float(baseline.get('tolerance', 0.20)):.0%} below baseline",
              file=sys.stderr)
        print("if this change moved throughput intentionally, refresh the "
              "baseline and commit the diff:\n"
              f"  python -m repro.perf update {args.bench_json} "
              f"--baseline {args.baseline}",
              file=sys.stderr)
        return EXIT_REGRESSION
    print("all gated benchmarks within tolerance")
    return EXIT_OK


def _cmd_update(args: argparse.Namespace) -> int:
    baseline_path = Path(args.baseline)
    baseline = _load_baseline(baseline_path)
    if baseline is None:
        return EXIT_MISSING_BASELINE
    bench_json = Path(args.bench_json)
    results, missing = check_report(
        load_benchmark_json(bench_json), baseline,
        captured=load_capture_scores(bench_json),
    )
    if missing:
        print(f"error: gated benchmarks missing from {args.bench_json}: "
              f"{', '.join(missing)}", file=sys.stderr)
        return EXIT_MISSING_BENCH
    for result in results:
        spec = baseline["benchmarks"][result.name]
        spec["normalized_rate"] = round(result.current_normalized, 3)
        spec["raw_rate_at_capture"] = round(result.current_raw, 1)
    score = results[0].score if results else machine_score()
    baseline["machine_score_at_capture"] = round(score, 3)
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"baseline {baseline_path} refreshed "
          f"(machine score {score:.2f})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="benchmark baseline gate (see module docstring)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="fail if gated benchmarks regressed below baseline"
    )
    check.add_argument("bench_json", help="pytest-benchmark JSON output")
    check.add_argument("--baseline", required=True,
                       help="checked-in baseline JSON")
    check.add_argument("--tolerance", type=float, default=None,
                       help="override the baseline's allowed drop fraction")
    check.set_defaults(func=_cmd_check)

    update = sub.add_parser(
        "update", help="rewrite the baseline's rates from a bench run"
    )
    update.add_argument("bench_json", help="pytest-benchmark JSON output")
    update.add_argument("--baseline", required=True,
                        help="baseline JSON to refresh in place")
    update.set_defaults(func=_cmd_update)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
