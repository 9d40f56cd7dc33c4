"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "CONVERGED" in out

    def test_spec_savefetch(self, capsys):
        assert main(["spec", "savefetch"]) == 0
        out = capsys.readouterr().out
        assert "protocol savefetch" in out
        assert "process p" in out

    def test_spec_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["spec", "quantum"])

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "e08"]) == 0
        out = capsys.readouterr().out
        assert "E8" in out and "staggered-vulnerable" in out

    def test_experiments_unknown_id(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiments", "e99"])

    def test_experiments_only_flag(self, capsys):
        assert main(["experiments", "--only", "e13"]) == 0
        out = capsys.readouterr().out
        assert "E13" in out and "completed in" in out

    def test_experiments_jobs_flag_parallel(self, capsys):
        assert main(["experiments", "--only", "e13", "--jobs", "2"]) == 0
        assert "E13" in capsys.readouterr().out

    def test_experiments_jobs_must_be_positive(self, capsys):
        assert main(["experiments", "--only", "e13", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_experiments_resume_persists_store(self, tmp_path, capsys):
        args = ["experiments", "--only", "e13", "--resume", "--out", str(tmp_path)]
        assert main(args) == 0
        store = tmp_path / "e13.jsonl"
        assert store.exists()
        size_after_first = store.stat().st_size
        capsys.readouterr()
        # Re-run: everything resumes from the store, nothing re-executes,
        # and the rendered table is identical.
        assert main(args) == 0
        assert store.stat().st_size == size_after_first
        assert "E13" in capsys.readouterr().out

    def test_gateway_compares_all_policies(self, capsys):
        args = ["gateway", "--sas", "4", "--crash-after", "80",
                "--messages", "80"]
        assert main(args) == 0
        out = capsys.readouterr().out
        for policy in ("serial", "batched", "write_ahead"):
            assert policy in out
        assert "spread" in out

    def test_gateway_pinned_policy(self, capsys):
        args = ["gateway", "--sas", "2", "--policy", "batched",
                "--crash-after", "60", "--messages", "60"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "batched" in out and "serial" not in out

    def test_gateway_rejects_zero_sas(self, capsys):
        assert main(["gateway", "--sas", "0"]) == 2
        assert "--sas must be >= 1" in capsys.readouterr().err

    def test_gateway_rejects_bad_crash_after(self, capsys):
        assert main(["gateway", "--crash-after", "0"]) == 2
        assert "--crash-after must be >= 1" in capsys.readouterr().err

    def test_fleet_sample_includes_gateway_grid(self, capsys):
        assert main(["fleet", "--sample"]) == 0
        out = capsys.readouterr().out
        assert '"gateway_crash"' in out
        assert '"store_policy"' in out

    def write_small_spec(self, tmp_path):
        import json

        from repro.fleet.spec import example_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(example_spec(sessions=8).to_dict()))
        return spec_path

    def test_fleet_runs_on_sharded_store_and_writes_aggregate(
        self, tmp_path, capsys
    ):
        import json

        spec_path = self.write_small_spec(tmp_path)
        out_dir = tmp_path / "runs"
        args = ["fleet", str(spec_path), "--out", str(out_dir),
                "--store", "sharded", "--shard-bits", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[sharded]" in out
        assert (out_dir / "results.shards" / "store_meta.json").exists()
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert aggregate["tasks"] == 8
        assert aggregate["errors"] == 0
        assert aggregate["percentile_mode"] == "exact"
        # Resume autodetects the backend without --store and reruns nothing.
        assert main(["fleet", str(spec_path), "--out", str(out_dir)]) == 0
        assert "(8 resumed from store)" in capsys.readouterr().out

    def test_fleet_sample_count_runs_subsample(self, tmp_path, capsys):
        import json

        from repro.fleet.spec import example_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(example_spec(sessions=40).to_dict()))
        out_dir = tmp_path / "runs"
        args = ["fleet", str(spec_path), "--out", str(out_dir),
                "--sample", "10", "--store", "sharded"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "sampled of 40" in out
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert 0 < aggregate["tasks"] < 40

    def test_fleet_bare_sample_with_spec_is_an_error(self, tmp_path, capsys):
        spec_path = self.write_small_spec(tmp_path)
        assert main(["fleet", str(spec_path), "--sample"]) == 2
        assert "--sample needs a session count" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", [
        {"__gatewayfault__": {"kind": "crash", "at": 0.0008}},  # retired tag
        {"__fault__": {"kind": "crash"}},  # no trigger
        {"__fault__": {"kind": "crash", "during_save": 2.5}},  # float count
    ])
    def test_fleet_rejects_a_bad_fault_before_any_task_runs(
        self, tmp_path, capsys, fault
    ):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "bad-fault",
            "grids": [{"scenario": "gateway_crash",
                       "params": {"n_sas": 2, "fault": fault}}],
        }))
        out_dir = tmp_path / "runs"
        assert main(["fleet", str(spec_path), "--out", str(out_dir)]) == 2
        assert "invalid campaign spec" in capsys.readouterr().err
        assert not (out_dir / "results.jsonl").exists()

    @pytest.mark.parametrize("field, value", [
        ("base_seed", 2.5), ("base_seed", "2"), ("base_seed", True),
        ("max_events", 2.5),
    ])
    def test_fleet_rejects_a_non_int_spec_field(
        self, tmp_path, capsys, field, value
    ):
        import json

        data = json.loads(self.write_small_spec(tmp_path).read_text())
        data[field] = value
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(data))
        out_dir = tmp_path / "runs"
        assert main(["fleet", str(spec_path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "invalid campaign spec" in err and f"{field} must be int" in err
        assert not (out_dir / "results.jsonl").exists()

    def test_netpath_prints_every_story(self, capsys):
        assert main(["netpath", "--messages", "200"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row for row in rows if row and row[0].startswith(
            ("nat_rebinding/", "path_flap", "mobile_handover")
        )] == [
            ["nat_rebinding/static", "200", "0", "0", "0", "0", "0"],
            ["nat_rebinding/strict", "100", "0", "101", "0", "0", "100"],
            ["nat_rebinding/rebind_on_valid", "200", "0", "0", "1", "0", "0"],
            ["path_flap", "150", "0", "0", "0", "50", "50"],
            ["mobile_handover", "247", "0", "0", "1", "99", "52"],
        ]

    def test_netpath_rejects_too_few_messages(self, capsys):
        assert main(["netpath", "--messages", "10"]) == 2
        assert "--messages must be >= 20" in capsys.readouterr().err

    def test_obs_scenario_manifest_carries_the_scenario_result(self, tmp_path):
        import json

        from repro.workloads.scenarios import run_sender_reset_scenario

        params = {"reset_after_sends": 120, "messages_after_reset": 80}
        run_dir = tmp_path / "run"
        assert main(["obs", str(run_dir), "--scenario", "sender_reset",
                     "--params", json.dumps(params), "--seed", "7",
                     "--check"]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        expected = run_sender_reset_scenario(seed=7, **params)
        assert manifest["metrics"] == json.loads(json.dumps(expected))

    def test_check_small_budget(self, capsys):
        # The SAFE cases need more states than this: they end TRUNCATED.
        assert main(["check", "--budget", "3000"]) == 1
        out = capsys.readouterr().out
        assert "COUNTEREXAMPLE" in out  # unprotected cases fail fast
        assert "unprotected / p resets" in out

    def test_check_prints_expected_verdicts_and_counts_truncation(self, capsys):
        assert main(["check", "--budget", "2000"]) == 1
        lines = capsys.readouterr().out.splitlines()
        rows = {}
        for line in lines:
            if " states)" in line:
                status, _, expected, *rest = line[34:].split()
                rows[line[:34].strip()] = (status, expected, rest[-1] == "DEVIATION")
        found, truncated = ("COUNTEREXAMPLE", "COUNTEREXAMPLE", False), (
            "TRUNCATED", "SAFE", True)
        assert rows == {
            "unprotected / p resets": found,
            "unprotected / q resets": found,
            "save-fetch / p resets": truncated,
            "save-fetch / q resets": truncated,
            "save-fetch / q resets + loss": found,
            "save-fetch / staggered dual": found,
            "ceiling / q resets + loss": truncated,
            "ceiling / staggered dual": truncated,
        }
        assert lines[-1].startswith("4 of 8 cases deviate")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
