"""Acceptance pins for the observability layer.

1. **Zero-overhead-off** — a run built with a :class:`NullHub` (explicit
   or ambient) is byte-identical to a run that never heard of the hub:
   on a no-fault baseline, on ``sender_reset``, and on a multi-SA
   ``gateway_crash``.  Wiring checks ``hub.enabled`` once at build time
   and attaches nothing, so the disabled path schedules the same events
   and draws the same random numbers.

2. **Observation never steers** — an *enabled* hub samples state but
   schedules nothing the protocol can see: the convergence report of an
   observed run equals the unobserved one exactly (only the engine's
   ``events_processed`` may differ, by the sampler ticks themselves).

3. **Fleet determinism** — an observed campaign writes the same result
   store as an unobserved one modulo the ``obs`` rollup key, and the
   same store across ``--jobs 1`` and ``--jobs 2``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.core.convergence import report_metrics
from repro.core.protocol import build_protocol
from repro.fleet.results import ResultStore
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import CampaignSpec, ScenarioGrid
from repro.obs.hub import NULL_HUB, MetricsHub, NullHub, use_hub
from repro.sim.trace import NULL_TRACE
from repro.workloads.scenarios import (
    run_gateway_crash_scenario,
    run_sender_reset_scenario,
)


def canonical(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True)


class TestNullHubParity:
    def test_baseline_traffic_byte_identical(self):
        """No faults, just a clocked stream: explicit NullHub == no hub."""
        reports = []
        for hub in (None, NULL_HUB, NullHub()):
            harness = build_protocol(trace=NULL_TRACE, hub=hub)
            harness.sender.start_traffic(count=500)
            harness.run(until=1.0)
            reports.append(canonical(report_metrics(harness.score())))
        assert reports[0] == reports[1] == reports[2]

    def test_sender_reset_scenario_byte_identical(self):
        plain = run_sender_reset_scenario()
        with use_hub(NULL_HUB):
            nulled = run_sender_reset_scenario()
        assert canonical(plain) == canonical(nulled)

    def test_gateway_crash_scenario_byte_identical(self):
        kwargs = dict(n_sas=4, crash_after_sends=120, messages_after_reset=80)
        plain = run_gateway_crash_scenario(**kwargs)
        with use_hub(NULL_HUB):
            nulled = run_gateway_crash_scenario(**kwargs)
        assert canonical(plain) == canonical(nulled)

    def test_null_hub_run_registers_nothing(self):
        hub = NullHub()
        harness = build_protocol(trace=NULL_TRACE, hub=hub)
        harness.sender.start_traffic(count=100)
        harness.run(until=1.0)
        assert harness.hub is None and harness.sampler is None
        assert hub.as_dict()["counters"] == {}


class TestEnabledHubParity:
    def test_observed_protocol_outcome_identical(self):
        reports = []
        events = []
        for hub in (None, MetricsHub("observed")):
            harness = build_protocol(trace=NULL_TRACE, hub=hub)
            harness.sender.start_traffic(count=400)
            events.append(harness.run(until=1.0))
            reports.append(canonical(report_metrics(harness.score())))
        assert reports[0] == reports[1]
        # The sampler's own ticks are the only extra events.
        assert events[1] > events[0]

    def test_observed_gateway_crash_metrics_identical(self):
        kwargs = dict(n_sas=4, crash_after_sends=120, messages_after_reset=80)
        plain = run_gateway_crash_scenario(**kwargs)
        with use_hub(MetricsHub("observed")):
            observed = run_gateway_crash_scenario(**kwargs)
        assert canonical(plain) == canonical(observed)


def canonical_lines(path: Path, strip_obs: bool = False) -> list[str]:
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record["wall_time"] = 0
        if strip_obs:
            record.get("metrics", {}).pop("obs", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def crash_spec() -> CampaignSpec:
    return CampaignSpec(
        name="obs-parity",
        base_seed=2003,
        grids=(ScenarioGrid(
            scenario="gateway_crash",
            params={
                "n_sas": [2, 4],
                "crash_after_sends": 60,
                "messages_after_reset": 60,
            },
        ),),
    )


class TestFleetDeterminism:
    def test_observed_store_matches_unobserved_modulo_rollup(self, tmp_path):
        stores = {}
        for observed in (False, True):
            key = "obs" if observed else "plain"
            store = ResultStore(tmp_path / key / "results.jsonl")
            obs_dir = tmp_path / key / "obsdata" if observed else None
            outcome = FleetRunner(
                crash_spec(), store, jobs=1, obs_dir=obs_dir
            ).run()
            assert {r.status for r in outcome.executed} == {"ok"}
            stores[key] = store
        assert canonical_lines(stores["plain"].path) == canonical_lines(
            stores["obs"].path, strip_obs=True
        )
        # The observed store really carries the rollups it stripped.
        rollups = [r.metrics["obs"] for r in stores["obs"].records()]
        assert all("counters" in rollup for rollup in rollups)

    def test_observed_store_identical_across_jobs_1_and_2(self, tmp_path):
        stores = {}
        for jobs in (1, 2):
            store = ResultStore(tmp_path / f"jobs{jobs}" / "results.jsonl")
            FleetRunner(
                crash_spec(), store, jobs=jobs,
                obs_dir=tmp_path / f"jobs{jobs}" / "obsdata",
            ).run()
            stores[jobs] = store
        assert canonical_lines(stores[1].path) == canonical_lines(stores[2].path)
