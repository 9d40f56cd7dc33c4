"""End-to-end tests: the ``obs`` CLI and the fleet's ``--obs`` plumbing."""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.fleet import runner as runner_module
from repro.fleet.results import ResultStore, ShardedResultStore
from repro.fleet.runner import FleetRunner, execute_task
from repro.fleet.spec import CampaignSpec, ScenarioGrid
from repro.obs.export import read_metrics_jsonl, validate_trace_events
from repro.obs.hub import merge_rollups


class TestObsCli:
    def run_observed(self, tmp_path, extra=()):
        return main([
            "obs", str(tmp_path / "run"),
            "--scenario", "gateway_crash",
            "--params", json.dumps(
                {"n_sas": 4, "crash_after_sends": 60,
                 "messages_after_reset": 60}
            ),
            "--seed", "2003", *extra,
        ])

    def test_scenario_run_writes_and_summarizes(self, tmp_path, capsys):
        assert self.run_observed(tmp_path) == 0
        out = capsys.readouterr().out
        assert "observed run written" in out
        assert "overall:" in out  # the health table printed
        run_dir = tmp_path / "run"
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "trace.json").exists()
        export = read_metrics_jsonl(run_dir / "metrics.jsonl")
        assert export["labels"] == ["sa0", "sa1", "sa2", "sa3"]

    def test_check_passes_on_real_run(self, tmp_path):
        assert self.run_observed(tmp_path, extra=("--check",)) == 0
        document = json.loads((tmp_path / "run" / "trace.json").read_text())
        assert validate_trace_events(document) == []

    def test_check_fails_on_corrupted_metrics(self, tmp_path, capsys):
        assert self.run_observed(tmp_path) == 0
        metrics_path = tmp_path / "run" / "metrics.jsonl"
        lines = metrics_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = "bogus@9"
        metrics_path.write_text("\n".join([json.dumps(header)] + lines[1:]))
        assert main(["obs", str(tmp_path / "run"), "--check"]) == 1
        assert "SCHEMA FAIL" in capsys.readouterr().err

    def test_summarize_without_run_errors(self, tmp_path, capsys):
        assert main(["obs", str(tmp_path / "empty")]) == 2
        assert "not an observed run" in capsys.readouterr().err

    def test_unknown_scenario_errors(self, tmp_path, capsys):
        code = main(["obs", str(tmp_path / "run"), "--scenario", "nonsense"])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err

    def test_bad_params_json_errors(self, tmp_path, capsys):
        code = main([
            "obs", str(tmp_path / "run"),
            "--scenario", "gateway_crash", "--params", "{not json",
        ])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_help_has_an_example_per_subcommand(self, capsys):
        for command in ("experiments", "check", "demo", "spec", "fleet",
                        "gateway", "netpath", "obs", "top"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "example:" in capsys.readouterr().out, (
                f"{command} --help lacks a usage example"
            )


def crash_spec(repeats=1, **params):
    return CampaignSpec(
        name="obs-fleet",
        base_seed=2003,
        grids=(ScenarioGrid(
            scenario="gateway_crash",
            params={"n_sas": [2, 4], "crash_after_sends": 60,
                    "messages_after_reset": 60, **params},
            repeats=repeats,
        ),),
    )


def observed_campaign(tmp_path, jobs: int = 1, spec=None):
    store = ResultStore(tmp_path / "results.jsonl")
    obs_dir = tmp_path / "obs"
    outcome = FleetRunner(
        spec or crash_spec(), store, jobs=jobs, obs_dir=obs_dir
    ).run()
    return outcome, store, obs_dir


class TestFleetObs:
    def test_per_task_metrics_files_written(self, tmp_path):
        # An under-provisioned k=25 at n_sas > 1 under the serial store
        # policy breaks the gap bound: every session fails, so every
        # session keeps its full hub.
        spec = crash_spec(k=25, store_policy="serial")
        outcome, _, obs_dir = observed_campaign(tmp_path, spec=spec)
        assert {r.status for r in outcome.executed} == {"ok"}
        for record in outcome.executed:
            assert record.metrics["bound_violations"]
            assert record.failing
            path = obs_dir / f"{record.task_id}.metrics.jsonl"
            assert path.exists(), f"missing metrics file for {record.task_id}"
            export = read_metrics_jsonl(path)
            assert export["name"] == record.task_id
            n_sas = record.params["n_sas"]
            assert export["labels"] == [f"sa{i}" for i in range(n_sas)]

    def test_converging_sessions_write_no_metrics_file(self, tmp_path):
        outcome, _, obs_dir = observed_campaign(tmp_path)
        assert all(r.metrics["converged"] for r in outcome.executed)
        assert not any(r.failing for r in outcome.executed)
        assert list(obs_dir.rglob("*.metrics.jsonl")) == []
        assert (obs_dir / "campaign_obs.json").exists()

    def test_erroring_task_writes_its_partial_hub(self, tmp_path):
        task = crash_spec().tasks()[0]
        # The event budget trips mid-scenario, after the probes exist.
        record = execute_task(task, max_events=500, obs_dir=tmp_path)
        assert record.status == "error"
        assert record.error.startswith("EngineEventLimitError")
        assert record.failing
        export = read_metrics_jsonl(tmp_path / f"{task.task_id}.metrics.jsonl")
        assert export["name"] == task.task_id
        assert export["labels"] == ["sa0", "sa1"]

    def test_failed_export_still_returns_the_record(self, tmp_path, monkeypatch):
        def broken(hub, path):
            raise OSError("disk full")

        monkeypatch.setattr(runner_module, "write_metrics_jsonl", broken)
        task = crash_spec(k=25, store_policy="serial").tasks()[0]
        record = execute_task(task, obs_dir=tmp_path)
        assert record.status == "ok" and record.failing
        errored = execute_task(task, max_events=500, obs_dir=tmp_path)
        assert errored.status == "error"

    def test_rollup_rides_each_record(self, tmp_path):
        outcome, _, _ = observed_campaign(tmp_path)
        for record in outcome.executed:
            rollup = record.metrics["obs"]
            assert rollup["counters"]["resets"] >= 2
            assert "recovery_latency" in rollup["histograms"]

    def test_campaign_rollup_written_and_consistent(self, tmp_path):
        outcome, store, obs_dir = observed_campaign(tmp_path)
        campaign = json.loads((obs_dir / "campaign_obs.json").read_text())
        expected = merge_rollups(
            record.metrics["obs"] for record in store.records()
        )
        assert campaign == json.loads(json.dumps(expected))
        assert campaign["tasks"] == len(outcome.executed)
        assert campaign["labels"] == 2 + 4

    def test_parallel_campaign_observes_identically(self, tmp_path):
        _, _, serial_dir = observed_campaign(tmp_path / "serial", jobs=1)
        _, _, pooled_dir = observed_campaign(tmp_path / "pooled", jobs=2)
        serial = json.loads((serial_dir / "campaign_obs.json").read_text())
        pooled = json.loads((pooled_dir / "campaign_obs.json").read_text())
        assert serial == pooled

    def test_fleet_cli_obs_flag(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-obs",
            "base_seed": 2003,
            "grids": [{
                "scenario": "gateway_crash",
                "params": {"n_sas": 2, "k": [25, 40],
                           "store_policy": "serial",
                           "crash_after_sends": 60,
                           "messages_after_reset": 60},
            }],
        }))
        out_dir = tmp_path / "runs"
        assert main(["fleet", str(spec_path), "--out", str(out_dir),
                     "--obs"]) == 0
        campaign = json.loads(
            (out_dir / "obs" / "campaign_obs.json").read_text()
        )
        assert campaign["tasks"] == 2
        # k=25 breaks the gap bound and keeps its file; k=40 converges.
        records = {
            r.params["k"]: r
            for r in ResultStore(out_dir / "results.jsonl").records()
        }
        assert records[25].failing and not records[40].failing
        metrics_files = list((out_dir / "obs").rglob("*.metrics.jsonl"))
        assert metrics_files == [
            out_dir / "obs" / f"{records[25].task_id}.metrics.jsonl"
        ]


def mixed_spec():
    """Crashes and sender resets: the histogram totals of their rollups
    are float sums whose last bits depend on the fold order."""
    return CampaignSpec(
        name="obs-fleet",
        base_seed=2003,
        grids=(
            crash_spec(repeats=2).grids[0],
            ScenarioGrid(
                scenario="sender_reset",
                params={"k": 25, "reset_after_sends": [40, 50, 60],
                        "messages_after_reset": 60},
                sessions=6,
            ),
        ),
    )


#: SHA-256 of ``campaign_obs.json`` for :func:`mixed_spec` on a
#: single-file store, as written by the runner that re-read the whole
#: store after the run: fresh (serial or pooled), and resumed with the
#: second half of the tasks stored first.
FRESH_CAMPAIGN_OBS_SHA256 = (
    "d5f12fd14464af0f4d328b30c75f06287f17d749b7d1dbe08d7380b56b360fcb"
)
RESUMED_CAMPAIGN_OBS_SHA256 = (
    "58a2cddf7685e70bdc1150a88f55c1d4b3b254ed273e2f2a210e98b296cb228e"
)


class CountingStore(ResultStore):
    """A file store that counts its full reads."""

    reads = 0

    def records(self):
        self.reads += 1
        return super().records()


class TestCampaignRollupFold:
    def run(self, root, jobs=1, stored_half=False):
        spec = mixed_spec()
        store = CountingStore(root / "results.jsonl")
        obs_dir = root / "obs"
        if stored_half:
            # The second half lands first, so the resume folds the
            # store out of task order.
            tasks = spec.tasks()
            half = SimpleNamespace(
                tasks=lambda: tasks[len(tasks) // 2:],
                max_events=spec.max_events,
            )
            FleetRunner(half, store, obs_dir=obs_dir).run()
            store.reads = 0
        outcome = FleetRunner(spec, store, jobs=jobs, obs_dir=obs_dir).run()
        assert outcome.total == 10
        assert outcome.skipped == (5 if stored_half else 0)
        return store, (obs_dir / "campaign_obs.json").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fresh_campaign_rollup_bytes_pinned(self, tmp_path, jobs):
        _, data = self.run(tmp_path, jobs=jobs)
        assert hashlib.sha256(data).hexdigest() == FRESH_CAMPAIGN_OBS_SHA256
        assert json.loads(data)["tasks"] == 10

    def test_sharded_campaign_rollup_matches_single_file(self, tmp_path):
        # Records fold in append order, not in shard order, so the store
        # backend no longer moves the last bits of a histogram total.
        store = ShardedResultStore(tmp_path / "shards")
        FleetRunner(mixed_spec(), store, obs_dir=tmp_path / "obs").run()
        data = (tmp_path / "obs" / "campaign_obs.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == FRESH_CAMPAIGN_OBS_SHA256

    def test_resumed_campaign_rollup_bytes_pinned(self, tmp_path):
        _, data = self.run(tmp_path, stored_half=True)
        assert hashlib.sha256(data).hexdigest() == RESUMED_CAMPAIGN_OBS_SHA256
        assert json.loads(data)["tasks"] == 10

    def test_store_read_once_per_run(self, tmp_path):
        store, _ = self.run(tmp_path / "fresh")
        assert store.reads == 1
        store, _ = self.run(tmp_path / "resumed", stored_half=True)
        assert store.reads == 1


def small_spec_file(tmp_path, sessions=2):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli-stream",
        "base_seed": 2003,
        "grids": [{
            "scenario": "gateway_crash",
            "params": {"n_sas": 2, "crash_after_sends": 60,
                       "messages_after_reset": 60},
            "sessions": sessions,
        }],
    }))
    return spec_path


class TestFleetStreamCli:
    def test_stream_flag_writes_valid_ledger(self, tmp_path, capsys):
        from repro.obs.export import validate_progress_file
        from repro.obs.stream import CampaignView

        spec_path = small_spec_file(tmp_path)
        out_dir = tmp_path / "runs"
        assert main(["fleet", str(spec_path), "--out", str(out_dir),
                     "--stream"]) == 0
        assert "ledger=" in capsys.readouterr().out
        ledger = out_dir / "progress.jsonl"
        assert validate_progress_file(ledger) == []
        view = CampaignView.replay(ledger)
        assert view.finished is True
        assert view.done == 2

    def test_watch_renders_frames_and_exits_zero(self, tmp_path, capsys):
        from repro.obs.top import ANSI_CLEAR

        spec_path = small_spec_file(tmp_path)
        out_dir = tmp_path / "runs"
        assert main(["fleet", str(spec_path), "--out", str(out_dir),
                     "--watch"]) == 0
        out = capsys.readouterr().out
        assert ANSI_CLEAR in out
        assert "campaign cli-stream" in out

    def test_profile_slow_runs_and_gates_on_min_samples(self, tmp_path):
        spec_path = small_spec_file(tmp_path, sessions=4)
        out_dir = tmp_path / "runs"
        assert main(["fleet", str(spec_path), "--out", str(out_dir),
                     "--stream", "--profile-slow"]) == 0
        # 4 tasks sit below the profiler's min-samples gate: the run
        # must succeed without littering pstats dumps.
        assert list(out_dir.rglob("*.pstats")) == []

    def test_top_once_renders_finished_ledger(self, tmp_path, capsys):
        spec_path = small_spec_file(tmp_path)
        out_dir = tmp_path / "runs"
        assert main(["fleet", str(spec_path), "--out", str(out_dir),
                     "--stream"]) == 0
        capsys.readouterr()
        assert main(["top", str(out_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "[FINISHED]" in out
        assert "campaign cli-stream" in out

    def test_top_missing_ledger_exits_two(self, tmp_path, capsys):
        tmp_path.joinpath("empty").mkdir()
        assert main(["top", str(tmp_path / "empty")]) == 2
        assert "--stream" in capsys.readouterr().err

    def test_top_rejects_non_positive_refresh(self, tmp_path, capsys):
        assert main(["top", str(tmp_path), "--refresh", "0"]) == 2
        assert "refresh" in capsys.readouterr().err


class TestExperimentsObsCli:
    def test_obs_flag_writes_campaign_rollup(self, tmp_path):
        out_dir = tmp_path / "exp"
        assert main(["experiments", "e12", "--out", str(out_dir),
                     "--obs"]) == 0
        campaign = out_dir / "obs" / "e12" / "campaign_obs.json"
        assert campaign.exists()
        rollup = json.loads(campaign.read_text())
        assert rollup["tasks"] >= 1
        metrics_files = list(
            (out_dir / "obs" / "e12").rglob("*.metrics.jsonl")
        )
        assert metrics_files

    def test_without_obs_flag_no_obs_dir(self, tmp_path):
        out_dir = tmp_path / "exp"
        assert main(["experiments", "e12", "--out", str(out_dir)]) == 0
        assert not (out_dir / "obs").exists()
