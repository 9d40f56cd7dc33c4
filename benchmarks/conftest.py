"""Shared benchmark plumbing.

Every experiment benchmark hands its sweep to :func:`run_experiment`,
which runs it through :class:`ExperimentDriver` exactly once per
benchmark round, prints the paper-style table after the run, and hands
the :class:`ExperimentResult` back so the bench can assert the
reproduced shape.  Use ``pytest benchmarks/ --benchmark-only -s`` to see
the rendered tables.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro import perf
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import ExperimentDriver, SweepSpec
from repro.perf import RateReport


def pytest_addoption(parser: pytest.Parser) -> None:
    # Benchmarks run from their own rootdir in CI, where
    # tests/conftest.py (the canonical home of --runslow) is not
    # loaded; guard the registration so a combined
    # `pytest tests benchmarks` invocation does not define it twice.
    try:
        parser.addoption(
            "--runslow",
            action="store_true",
            default=False,
            help="run benchmarks marked `slow` (full 1M-session campaigns)",
        )
    except ValueError:
        pass


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow full-scale bench; use --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def run_experiment(benchmark) -> Callable[[SweepSpec], ExperimentResult]:
    """Run a sweep once through :class:`ExperimentDriver` under the
    benchmark timer, print the resulting table, and return the result."""

    def runner(spec: SweepSpec) -> ExperimentResult:
        result = benchmark.pedantic(
            lambda: ExperimentDriver(spec).run(),
            rounds=1, iterations=1, warmup_rounds=0,
        )
        print()
        print(result.render())
        return result

    return runner


@pytest.fixture
def report_rate(benchmark) -> Callable[[str, int], RateReport]:
    """Print the shared machine-normalized rate line for a finished bench.

    Call *after* ``benchmark(...)``: reads the best round's time, reports
    ``count`` items at that pace via :mod:`repro.perf` (the same numbers
    the CI gate recomputes from the saved JSON), and attaches them to the
    benchmark's ``extra_info`` so they land in ``--benchmark-json`` output.
    """

    def reporter(metric: str, count: int) -> RateReport:
        stats = benchmark.stats
        report = perf.measure_rate(stats.name, metric, count, stats.stats.min)
        benchmark.extra_info.update(report.as_dict())
        print()
        print(report.format())
        return report

    return reporter
