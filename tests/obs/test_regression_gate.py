"""The regression-gate acceptance: a seeded 2x recovery-latency
regression is caught RED (exit 1) while the self-diff of the same run
reports zero regressions (exit 0), and every render is byte-identical
between live ingest and archive replay.

This is the CI `regression` job in miniature, driven through the real
CLI surfaces (`obs archive` / `obs diff` / `obs history`).
"""

import copy
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.archive import (
    RunArchive,
    RunSnapshot,
    snapshot_from_obs_run,
    snapshot_target,
)
from repro.obs.compare import diff_runs, render_diff_table
from repro.obs.health import HealthState
from repro.obs.trend import render_history_table


@pytest.fixture(scope="module")
def observed_run(tmp_path_factory):
    """A small observed gateway_crash exported to a run directory."""
    from repro.obs.export import export_run
    from repro.obs.hub import MetricsHub, use_hub
    from repro.workloads.scenarios import run_gateway_crash_scenario

    params = {"n_sas": 4, "crash_after_sends": 60,
              "messages_after_reset": 60}
    hub = MetricsHub()
    with use_hub(hub):
        metrics = run_gateway_crash_scenario(seed=2003, **params)
    return export_run(
        tmp_path_factory.mktemp("gate") / "run", hub,
        scenario="gateway_crash", params=params, seed=2003,
        manifest_extra={"metrics": metrics},
    )


def seeded_regression(snapshot, factor=2.0):
    """The synthetic regression: recovery latency multiplied through
    every evidence shape (samples, histogram extremes + bucket shift)."""
    regressed = copy.deepcopy(snapshot)
    octaves = int(factor).bit_length() - 1  # 2x -> one bucket up
    for name, values in regressed.signals["samples"].items():
        if "recovery" in name:
            regressed.signals["samples"][name] = [v * factor for v in values]
    for name, payload in list(regressed.signals["histograms"].items()):
        if "recovery" in name:
            shifted = dict(payload)
            shifted["buckets"] = {
                str(int(index) + octaves): count
                for index, count in payload["buckets"].items()
            }
            for key in ("min", "max", "mean", "p50", "p99", "total"):
                if key in shifted:
                    shifted[key] = shifted[key] * factor
            regressed.signals["histograms"][name] = shifted
    return regressed


class TestSeededRegression:
    def test_doubled_recovery_latency_goes_red(self, observed_run):
        base = snapshot_target(observed_run)
        cur = seeded_regression(base)
        diff = diff_runs(base, cur)
        assert diff.verdict is HealthState.RED
        assert any("recovery" in row.name for row in diff.regressions)

    def test_improvement_direction_stays_green(self, observed_run):
        base = snapshot_target(observed_run)
        cur = seeded_regression(base)
        # Halving latency (the reverse diff) is an improvement.
        assert diff_runs(cur, base).verdict is HealthState.GREEN

    def test_self_diff_zero_regressions(self, observed_run):
        snapshot = snapshot_target(observed_run)
        diff = diff_runs(snapshot, snapshot)
        assert diff.verdict is HealthState.GREEN
        assert diff.regressions == []


class TestCliGate:
    def test_self_diff_exits_zero(self, observed_run, tmp_path, capsys):
        code = main(["obs", "diff", str(observed_run), str(observed_run),
                     "--archive", str(tmp_path / "wh")])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: GREEN (0 regression(s))" in out
        assert "self-diff" in out

    def test_seeded_regression_exits_one(self, observed_run, tmp_path,
                                          capsys):
        base = snapshot_target(observed_run)
        regressed = seeded_regression(base)
        # The regressed snapshot is hash-consistent (recomputed), so it
        # writes/loads as a first-class archived run.
        reg_path = tmp_path / "regressed.json"
        reg_path.write_text(json.dumps(regressed.as_dict()))
        code = main(["obs", "diff", str(observed_run), str(reg_path),
                     "--archive", str(tmp_path / "wh")])
        captured = capsys.readouterr()
        assert code == 1
        assert "verdict: RED" in captured.out
        assert "REGRESSION" in captured.err
        assert "--write-snapshot" in captured.err  # refresh hint

    def test_json_output_parses(self, observed_run, tmp_path, capsys):
        code = main(["obs", "diff", str(observed_run), str(observed_run),
                     "--archive", str(tmp_path / "wh"), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "GREEN"
        assert data["regressions"] == 0


class TestArchiveCli:
    def test_archive_then_dedup(self, observed_run, tmp_path, capsys):
        warehouse = tmp_path / "wh"
        assert main(["obs", "archive", str(observed_run),
                     "--archive", str(warehouse)]) == 0
        first = capsys.readouterr().out
        assert "archived: obs-run" in first
        assert main(["obs", "archive", str(observed_run),
                     "--archive", str(warehouse)]) == 0
        second = capsys.readouterr().out
        assert "already archived" in second
        assert len(RunArchive(warehouse).index()) == 1

    def test_write_snapshot_round_trips(self, observed_run, tmp_path,
                                        capsys):
        target = tmp_path / "ref" / "run.json"
        assert main(["obs", "archive", str(observed_run),
                     "--archive", str(tmp_path / "wh"),
                     "--write-snapshot", str(target)]) == 0
        loaded = RunSnapshot.from_dict(json.loads(target.read_text()))
        assert loaded.run_id == snapshot_target(observed_run).run_id

    def test_history_renders(self, observed_run, tmp_path, capsys):
        warehouse = tmp_path / "wh"
        main(["obs", "archive", str(observed_run),
              "--archive", str(warehouse)])
        capsys.readouterr()
        assert main(["obs", "history", "--archive", str(warehouse)]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out
        assert "gateway_crash" in out


class TestByteIdenticalReplay:
    def test_diff_render_replays_identically(self, observed_run, tmp_path):
        warehouse = RunArchive(tmp_path / "wh")
        live = snapshot_target(observed_run)
        regressed = seeded_regression(live)
        warehouse.add(live)
        warehouse.add(regressed)
        live_render = render_diff_table(diff_runs(live, regressed),
                                        verbose=True)
        replayed = render_diff_table(
            diff_runs(warehouse.load(live.run_id),
                      warehouse.load(regressed.run_id)),
            verbose=True,
        )
        assert replayed == live_render

    def test_history_render_replays_identically(self, observed_run,
                                                tmp_path):
        warehouse = RunArchive(tmp_path / "wh")
        live = snapshot_target(observed_run)
        regressed = seeded_regression(live)
        warehouse.add(live)
        warehouse.add(regressed)
        live_render = render_history_table([live, regressed])
        assert render_history_table(warehouse.history()) == live_render
        assert "!" in live_render or "anomaly" in live_render


REFERENCE = (Path(__file__).resolve().parents[2]
             / "benchmarks" / "baselines" / "obs_reference" / "run.json")


class TestCommittedReference:
    def test_reference_snapshot_is_valid_and_hash_consistent(self):
        assert REFERENCE.exists(), "the CI gate's reference snapshot is missing"
        snapshot = RunSnapshot.from_dict(json.loads(REFERENCE.read_text()))
        assert snapshot.kind == "obs-run"
        assert snapshot.name == "gateway_crash"
        # The gate's protocol metrics are all present.
        assert "recovery_latency" in snapshot.signals["histograms"]
        assert "metric/converged" in snapshot.signals["counters"]
        # Self-diff of the committed file: zero regressions forever.
        diff = diff_runs(snapshot, snapshot)
        assert diff.verdict is HealthState.GREEN

    def test_reference_matches_its_recipe(self, tmp_path):
        # The DESIGN.md regeneration recipe, in-process.  The CI diff
        # gates on tolerances, so only the content hash catches a
        # reference left stale by a change to what a run exports.
        run_dir = tmp_path / "ref-run"
        params = {"n_sas": 8, "crash_after_sends": 100,
                  "messages_after_reset": 100}
        assert main(["obs", str(run_dir), "--scenario", "gateway_crash",
                     "--params", json.dumps(params), "--seed", "2003"]) == 0
        committed = json.loads(REFERENCE.read_text())
        snapshot = snapshot_from_obs_run(run_dir, name="gateway_crash")
        assert snapshot.run_id == committed["run_id"], (
            "benchmarks/baselines/obs_reference/run.json is stale: "
            "regenerate it with the DESIGN.md recipe"
        )
