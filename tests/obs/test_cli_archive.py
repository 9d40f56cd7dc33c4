"""The perf gate's provenance print, plus the extended
``obs <run-dir> --check`` (progress ledger + flight recorder dumps),
each driven end-to-end through its real argument parser.
"""

import json

import pytest

from repro import perf
from repro.__main__ import main
from repro.obs.flightrec import FLIGHT_SCHEMA
from repro.obs.stream import PROGRESS_SCHEMA


def write_bench_json(path, score, seconds=0.001):
    path.write_text(json.dumps({
        "benchmarks": [{
            "name": "bench_engine_event_rate",
            "stats": {"min": seconds},
            "extra_info": {
                "schema": perf.RATE_SCHEMA,
                "name": "bench_engine_event_rate",
                "metric": "events/s",
                "count": 1000,
                "seconds": seconds,
                "rate": 1000 / seconds,
                "machine_score": score,
                "normalized_rate": 1000 / seconds / score,
                "git_sha": "deadbeef" * 5,
            },
        }],
    }))
    return path


def write_baseline(path):
    path.write_text(json.dumps({
        "metric": "events/s",
        "tolerance": 0.20,
        "benchmarks": {
            "bench_engine_event_rate": {
                "count": 1000,
                # Far below anything a real host produces, so the gate
                # itself stays green and the test reads its print.
                "normalized_rate": 1e-6,
            },
        },
    }))
    return path


class TestPerfCheckArchive:
    def test_provenance_mismatch_printed(self, tmp_path, capsys):
        # Captured on a host twice as fast as this one: the gate reads
        # the file's own normalized rate, the one the bench printed.
        score = perf.machine_score() * 2.0
        bench = write_bench_json(tmp_path / "BENCH_M3.json", score=score)
        baseline = write_baseline(tmp_path / "baseline.json")
        code = perf.main(["check", str(bench), "--baseline", str(baseline)])
        captured = capsys.readouterr().out
        assert code == perf.EXIT_OK
        stamped = json.loads(bench.read_text())["benchmarks"][0]
        rate = stamped["extra_info"]["normalized_rate"]
        assert f"normalized {rate:,.1f} vs baseline" in captured
        assert f"@ score {score:.2f} ok" in captured


@pytest.fixture()
def checked_run(tmp_path, capsys):
    """An observed run produced through the CLI itself (so the on-disk
    layout is exactly what --check validates)."""
    run_dir = tmp_path / "run"
    assert main(["obs", str(run_dir), "--scenario", "gateway_crash",
                 "--params", json.dumps({"n_sas": 2,
                                         "crash_after_sends": 20,
                                         "messages_after_reset": 20}),
                 "--seed", "2003"]) == 0
    capsys.readouterr()
    return run_dir


def valid_ledger_lines():
    return [
        {"kind": "campaign_started", "time": 0.0,
         "schema": PROGRESS_SCHEMA, "data": {"total": 1}},
        {"kind": "task_started", "time": 0.1, "task_id": "t0"},
        {"kind": "task_finished", "time": 0.2, "task_id": "t0"},
    ]


def valid_flight_dump(worker="w0"):
    return {
        "schema": FLIGHT_SCHEMA,
        "worker": worker,
        "reason": "task_errored",
        "events": [{"kind": "task_started", "task_id": "t0"}],
        "recorded": 1,
        "dropped": 0,
        "resources": {"rss_bytes": 1},
    }


class TestObsCheckStreamingArtifacts:
    def write_ledger(self, run_dir, lines, torn=False):
        text = "".join(json.dumps(line) + "\n" for line in lines)
        if torn:
            text += '{"kind": "task_started", "time": 0.3, "ta'
        (run_dir / "progress.jsonl").write_text(text)

    def test_valid_artifacts_pass(self, checked_run, capsys):
        self.write_ledger(checked_run, valid_ledger_lines())
        (checked_run / "flight_w0.json").write_text(
            json.dumps(valid_flight_dump()))
        assert main(["obs", str(checked_run), "--check"]) == 0
        out = capsys.readouterr().out
        assert "schema check OK" in out
        assert "progress.jsonl" in out
        assert "flight_w0.json" in out

    def test_torn_ledger_warns_not_fails(self, checked_run, capsys):
        self.write_ledger(checked_run, valid_ledger_lines(), torn=True)
        assert main(["obs", str(checked_run), "--check"]) == 0
        captured = capsys.readouterr()
        assert "WARN" in captured.err
        assert "schema check OK" in captured.out

    def test_invalid_ledger_fails(self, checked_run, capsys):
        lines = valid_ledger_lines()
        lines[1]["kind"] = "task_teleported"
        self.write_ledger(checked_run, lines)
        assert main(["obs", str(checked_run), "--check"]) == 1
        assert "SCHEMA FAIL" in capsys.readouterr().err

    def test_invalid_flight_dump_fails(self, checked_run, capsys):
        dump = valid_flight_dump()
        del dump["worker"]
        (checked_run / "flight_w1.json").write_text(json.dumps(dump))
        assert main(["obs", str(checked_run), "--check"]) == 1
        err = capsys.readouterr().err
        assert "flight_w1.json" in err
        assert "worker" in err

    def test_unparseable_flight_dump_fails(self, checked_run, capsys):
        (checked_run / "flight_w2.json").write_text("{not json")
        assert main(["obs", str(checked_run), "--check"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_absent_streaming_artifacts_still_ok(self, checked_run, capsys):
        # A run that never streamed has neither file; --check only
        # validates what the run dir actually carries.
        assert main(["obs", str(checked_run), "--check"]) == 0
        out = capsys.readouterr().out
        assert "schema check OK" in out
        assert "progress.jsonl" not in out
