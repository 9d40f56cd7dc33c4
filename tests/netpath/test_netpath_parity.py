"""Acceptance pins for the netpath subsystem.

1. **Golden parity** — a single-phase static ``PathProfile`` is the
   paper's fixed channel, byte for byte: on a no-fault baseline, on the
   ``sender_reset`` scenario, and on a multi-SA ``gateway_crash``, the
   ConvergenceReport metrics with a static profile attached must equal
   the pre-netpath (``path=None``) run exactly.  The netpath layer is a
   refactor of the net contract, not a behavioural change.

2. **Store determinism** — a ``nat_rebinding`` grid run through the
   fleet writes byte-identical result stores modulo ``wall_time``
   across ``--jobs 1`` and ``--jobs 4``: NAT gates, path timelines and
   the replay schedule are all part of the deterministic event
   schedule, not artifacts of execution parallelism.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.core.protocol import build_protocol
from repro.core.convergence import report_metrics
from repro.fleet.results import ResultStore
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import CampaignSpec, ScenarioGrid
from repro.net.delay import UniformJitterDelay
from repro.net.loss import BernoulliLoss
from repro.netpath import PathProfile
from repro.sim.trace import NULL_TRACE
from repro.workloads.scenarios import (
    run_gateway_crash_scenario,
    run_sender_reset_scenario,
)


def canonical(metrics: dict) -> str:
    return json.dumps(metrics, sort_keys=True)


class TestGoldenParity:
    def test_baseline_traffic_byte_identical(self):
        """No faults, just a clocked stream: static profile == no profile."""
        reports = []
        for path in (None, PathProfile.static()):
            harness = build_protocol(trace=NULL_TRACE, path=path)
            harness.sender.start_traffic(count=500)
            harness.run(until=1.0)
            reports.append(report_metrics(harness.score()))
        assert canonical(reports[0]) == canonical(reports[1])

    def test_baseline_with_jitter_and_loss_byte_identical(self):
        """The profile's phase models must consume the same RNG stream as
        link-constructor models (clones start in the reset state)."""
        delay = UniformJitterDelay(0.0001, 0.0002)
        loss = BernoulliLoss(0.05)
        reports = []
        for kwargs in (
            dict(delay=delay, loss=loss),
            dict(path=PathProfile.static(delay=delay, loss=loss)),
        ):
            harness = build_protocol(trace=NULL_TRACE, seed=11, **kwargs)
            harness.sender.start_traffic(count=500)
            harness.run(until=1.0)
            reports.append(report_metrics(harness.score(check_bounds=False)))
        assert canonical(reports[0]) == canonical(reports[1])

    def test_sender_reset_scenario_byte_identical(self):
        plain = run_sender_reset_scenario()
        pathed = run_sender_reset_scenario(path=PathProfile.static())
        assert canonical(plain) == canonical(pathed)

    def test_gateway_crash_scenario_byte_identical(self):
        kwargs = dict(n_sas=4, crash_after_sends=120, messages_after_reset=80)
        plain = run_gateway_crash_scenario(**kwargs)
        pathed = run_gateway_crash_scenario(path=PathProfile.static(), **kwargs)
        assert canonical(plain) == canonical(pathed)


def canonical_lines(path: Path) -> list[str]:
    return [
        re.sub(r'"wall_time":[0-9eE.+-]+', '"wall_time":0', line)
        for line in path.read_text().splitlines()
    ]


class TestStoreDeterminism:
    def test_nat_rebinding_grid_identical_across_jobs_1_and_4(self, tmp_path):
        spec = CampaignSpec(
            name="netpath-jobs",
            base_seed=2003,
            grids=(ScenarioGrid(
                scenario="nat_rebinding",
                params={
                    "policy": ["strict", "rebind_on_valid"],
                    "reset_schedule": ["none", "during"],
                    "rebind_after_sends": 60,
                    "messages_after_rebind": 60,
                },
            ),),
        )
        assert spec.session_count() == 4
        stores = {}
        for jobs in (1, 4):
            store = ResultStore(tmp_path / f"jobs{jobs}" / "results.jsonl")
            outcome = FleetRunner(spec, store, jobs=jobs).run()
            assert len(outcome.executed) == 4
            assert {r.status for r in outcome.executed} == {"ok"}
            stores[jobs] = store
        assert canonical_lines(stores[1].path) == canonical_lines(stores[4].path)
        # The NAT model really ran in the workers: policy-dependent outcomes.
        by_id = {r.task_id: r.metrics for r in stores[1].records()}
        rebinds = {tid: m["nat"]["rebinds"] for tid, m in by_id.items()}
        assert set(rebinds.values()) == {0, 1}  # strict vs rebind_on_valid
