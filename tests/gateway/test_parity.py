"""Acceptance pins for the gateway subsystem.

1. **Golden parity** — a ``gateway_crash`` with one SA is exactly the
   single-pair ``sender_reset`` scenario: same trigger, stream-sizing
   rule and run to drain, and (serial policy, uncontended) the shared
   store's timing is bit-identical to a private ``PersistentStore``.  Every
   field of the flattened per-SA ``ConvergenceReport`` must equal the
   single pair's.

2. **Store determinism at scale** — a 50-SA crash grid run through the
   fleet writes byte-identical result stores modulo ``wall_time``
   across ``--jobs 1`` and ``--jobs 4``: the shared store's recovery
   ordering (the FETCH-storm queue) is part of the deterministic event
   schedule, not an artifact of execution parallelism.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.fleet.results import ResultStore
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import CampaignSpec, ScenarioGrid
from repro.workloads.scenarios import (
    run_gateway_crash_scenario,
    run_sender_reset_scenario,
)


class TestGoldenParity:
    def test_one_sa_gateway_crash_is_exactly_sender_reset(self):
        single = run_sender_reset_scenario()  # all paper defaults
        gateway = run_gateway_crash_scenario(n_sas=1)  # all gateway defaults
        assert gateway["sa_reports"][0].items() <= single.items()

    def test_one_sa_parity_holds_off_the_defaults(self):
        kwargs = dict(reset_after_sends=120, messages_after_reset=80, k=25)
        single = run_sender_reset_scenario(**kwargs)
        gateway = run_gateway_crash_scenario(
            n_sas=1, crash_after_sends=120, messages_after_reset=80, k=25
        )
        assert gateway["sa_reports"][0].items() <= single.items()
        assert gateway["recovery_spreads"] == [0.0]


def canonical_lines(path: Path) -> list[str]:
    return [
        re.sub(r'"wall_time":[0-9eE.+-]+', '"wall_time":0', line)
        for line in path.read_text().splitlines()
    ]


class TestStoreDeterminismAtScale:
    def test_fifty_sa_crash_grid_identical_across_jobs_1_and_4(self, tmp_path):
        spec = CampaignSpec(
            name="gw-50sa",
            base_seed=2003,
            grids=(ScenarioGrid(
                scenario="gateway_crash",
                params={
                    "n_sas": 50,
                    "k": 50,
                    "store_policy": ["serial", "batched"],
                    "crash_after_sends": 60,
                    "messages_after_reset": 60,
                },
            ),),
        )
        stores = {}
        for jobs in (1, 4):
            store = ResultStore(tmp_path / f"jobs{jobs}" / "results.jsonl")
            outcome = FleetRunner(spec, store, jobs=jobs).run()
            assert len(outcome.executed) == 2
            assert {r.status for r in outcome.executed} == {"ok"}
            stores[jobs] = store
        assert canonical_lines(stores[1].path) == canonical_lines(stores[4].path)
        # The contention model really ran: 50 queued recovery fetches.
        records = list(stores[1].records())
        for record in records:
            assert record.metrics["n_sas"] == 50
            assert record.metrics["store"]["fetches"] == 50
            assert max(record.metrics["recovery_spreads"]) > 0
