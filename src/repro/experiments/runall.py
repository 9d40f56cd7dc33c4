"""Run every experiment at full parameterisation and render the tables.

Usage::

    python -m repro.experiments.runall            # all experiments
    python -m repro.experiments.runall e05 e07    # a subset

The :data:`EXPERIMENTS` registry (mirroring ``workloads.SCENARIOS``) maps
stable experiment ids to full-size :class:`~repro.experiments.sweep.SweepSpec`
factories; every experiment executes through the fleet runner, so
``python -m repro experiments --jobs N`` parallelises the suite and
``--resume`` makes it interrupt-safe (finished sessions are never
recomputed).  Benchmarks under ``benchmarks/`` hand smaller sweeps to
the same :class:`~repro.experiments.sweep.ExperimentDriver`, with timing.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable

from repro.experiments import (
    e01_sender_gap,
    e02_receiver_gap,
    e03_sender_loss,
    e04_receiver_discard,
    e05_unbounded,
    e06_save_interval,
    e07_rekey_cost,
    e08_dual_reset,
    e09_prolonged_reset,
    e10_reorder,
    e11_double_reset,
    e12_reset_notice,
    e13_dpd,
    e14_loss_robustness,
    e15_gateway_convergence,
    e16_path_dynamics,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.sweep import ExperimentDriver, SweepSpec
from repro.fleet.results import ResultStore

#: Experiment id -> factory producing its full-parameterisation sweep.
#: Mirrors ``workloads.SCENARIOS``: a stable string namespace declarative
#: drivers (the CLI, benchmarks, future fleet specs) select from.
EXPERIMENTS: dict[str, Callable[[], SweepSpec]] = {
    "e01": lambda: e01_sender_gap.sweep(k=50, offsets=list(range(0, 50, 2))),
    "e02": lambda: e02_receiver_gap.sweep(k=50, offsets=list(range(0, 50, 2))),
    "e03": lambda: e03_sender_loss.sweep(ks=[5, 10, 25, 50, 100]),
    "e04": lambda: e04_receiver_discard.sweep(ks=[5, 10, 25, 50, 100]),
    "e05": lambda: e05_unbounded.sweep(traffic_volumes=[100, 250, 500, 1000, 2500]),
    "e06": lambda: e06_save_interval.sweep(ks=[5, 10, 15, 20, 25, 50, 100, 200]),
    "e06b": lambda: e06_save_interval.policy_sweep(ks=[25, 50, 100]),
    "e07": lambda: e07_rekey_cost.sweep(
        sa_counts=[1, 4, 16, 64], rtts=[0.001, 0.010, 0.050]
    ),
    "e08": lambda: e08_dual_reset.sweep(k=25),
    "e09": lambda: e09_prolonged_reset.sweep(
        outages=[0.05, 0.2, 0.5, 2.0], keep_alive_timeout=1.0
    ),
    "e10": lambda: e10_reorder.sweep(
        window_sizes=[32, 64], degrees=[1, 8, 31, 32, 33, 63, 64, 65, 128],
        messages=2000,
    ),
    "e11": lambda: e11_double_reset.sweep(k=25),
    "e12": lambda: e12_reset_notice.sweep(),
    "e13": lambda: e13_dpd.sweep(cadences=[0.1, 0.5, 2.0]),
    "e14": lambda: e14_loss_robustness.sweep(
        burst_levels=[0.0, 0.005, 0.02, 0.05], seeds=8
    ),
    "e15": lambda: e15_gateway_convergence.sweep(sa_counts=[1, 4, 16, 50]),
    "e16": lambda: e16_path_dynamics.sweep(scale=300),
}


def run_experiment(
    experiment_id: str,
    jobs: int = 1,
    resume_dir: str | Path | None = None,
    obs_dir: str | Path | None = None,
) -> ExperimentResult:
    """Run one registered experiment at full size through the fleet.

    With ``resume_dir`` the task records persist to
    ``<resume_dir>/<id>.jsonl``; re-running after an interrupt skips
    every finished session.  With ``obs_dir`` every task runs observed:
    a campaign rollup, plus a metrics file for each failing session,
    land under ``<obs_dir>/<id>/`` (same semantics as ``fleet --obs``).
    """
    if experiment_id not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    spec = EXPERIMENTS[experiment_id]()
    store = (
        ResultStore(Path(resume_dir) / f"{experiment_id}.jsonl")
        if resume_dir is not None
        else None
    )
    observe = Path(obs_dir) / experiment_id if obs_dir is not None else None
    return ExperimentDriver(spec, jobs=jobs, store=store, obs_dir=observe).run()


def run_all(
    ids: list[str] | None = None,
    jobs: int = 1,
    resume_dir: str | Path | None = None,
    obs_dir: str | Path | None = None,
) -> list[ExperimentResult]:
    """Run the selected experiments (all when ``ids`` is falsy)."""
    selected = ids or list(EXPERIMENTS)
    results = []
    for experiment_id in selected:
        started = time.perf_counter()
        result = run_experiment(experiment_id, jobs=jobs,
                                resume_dir=resume_dir, obs_dir=obs_dir)
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"\n[{experiment_id} completed in {elapsed:.1f}s]\n")
        results.append(result)
    return results


def main() -> None:
    run_all(sys.argv[1:])


if __name__ == "__main__":
    main()
