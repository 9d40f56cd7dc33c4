"""Tests for repro.perf (timers, normalization, and the baseline gate)."""

import json

import pytest

from repro import perf
from repro.perf import (
    RATE_SCHEMA,
    GateResult,
    RateReport,
    Stopwatch,
    check_report,
    current_git_sha,
    load_benchmark_json,
    load_benchmark_provenance,
    load_capture_scores,
    machine_score,
    measure_rate,
)


class TestStopwatch:
    def test_measures_elapsed_time(self):
        with Stopwatch() as clock:
            pass
        assert clock.elapsed >= 0

    def test_running_read_is_monotonic(self):
        with Stopwatch() as clock:
            first = clock.elapsed
            second = clock.elapsed
            assert second >= first

    def test_unstarted_read_raises(self):
        with pytest.raises(RuntimeError, match="not been started"):
            Stopwatch().elapsed

    def test_reusable(self):
        clock = Stopwatch()
        with clock:
            pass
        first = clock.elapsed
        with clock:
            pass
        assert clock.elapsed is not None
        assert first is not None


class TestMachineScore:
    def test_positive_and_cached(self):
        first = machine_score()
        assert first > 0
        assert machine_score() == first  # cached, not re-measured

    def test_recalibrate_returns_positive(self):
        assert machine_score(recalibrate=True) > 0


class TestRateReport:
    def test_rate_math(self):
        report = RateReport(
            name="bench_x", metric="events/s", count=1000, seconds=0.5,
            score=2.0,
        )
        assert report.rate == 2000.0
        assert report.normalized == 1000.0

    def test_format_is_one_line_with_name_and_metric(self):
        report = measure_rate("bench_y", "sessions/s", 10, 2.0)
        line = report.format()
        assert "\n" not in line
        assert "bench_y" in line
        assert "sessions/s" in line

    def test_as_dict_round_trips_through_json(self):
        report = measure_rate("bench_z", "events/s", 100, 1.0)
        data = json.loads(json.dumps(report.as_dict()))
        assert data["name"] == "bench_z"
        assert data["rate"] == pytest.approx(100.0)
        assert data["normalized_rate"] == pytest.approx(
            100.0 / report.score
        )

    def test_as_dict_is_schema_tagged_with_provenance(self):
        report = RateReport(
            name="bench_x", metric="events/s", count=10, seconds=1.0,
            score=1.0, git_sha="abc123",
        )
        data = report.as_dict()
        assert data["schema"] == RATE_SCHEMA
        assert data["machine_score"] == 1.0
        assert data["git_sha"] == "abc123"

    def test_measure_rate_stamps_current_sha(self):
        report = measure_rate("bench_x", "events/s", 10, 1.0)
        assert report.git_sha == current_git_sha()


class TestGitShaProvenance:
    def test_github_sha_env_wins(self, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "feed" * 10)
        assert current_git_sha() == "feed" * 10

    def test_falls_back_to_git(self, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        sha = current_git_sha()
        # This test runs inside the repo, so git answers (40 hex chars);
        # the contract either way is "a sha or None", never an exception.
        assert sha is None or len(sha) == 40

    def test_no_repo_no_git_is_none(self, monkeypatch, tmp_path):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PATH", str(tmp_path))  # git unreachable
        assert current_git_sha() is None


def make_baseline(**benchmarks):
    return {
        "metric": "events/s",
        "tolerance": 0.20,
        "benchmarks": dict(benchmarks),
    }


class TestCheckReport:
    def test_passes_at_baseline_rate(self):
        baseline = make_baseline(
            bench_a={"count": 1000, "normalized_rate": 100.0}
        )
        # 1000 items in 10s at score 1.0 -> normalized 100, exactly baseline.
        results, missing = check_report({"bench_a": 10.0}, baseline, score=1.0)
        assert missing == []
        assert len(results) == 1
        assert results[0].ok
        assert results[0].ratio == pytest.approx(1.0)

    def test_fails_below_tolerance_floor(self):
        baseline = make_baseline(
            bench_a={"count": 1000, "normalized_rate": 100.0}
        )
        # 21% slower than baseline: floor is 80, current is 79.
        results, _ = check_report({"bench_a": 1000 / 79.0}, baseline, score=1.0)
        assert not results[0].ok

    def test_passes_just_above_floor(self):
        baseline = make_baseline(
            bench_a={"count": 1000, "normalized_rate": 100.0}
        )
        results, _ = check_report({"bench_a": 1000 / 81.0}, baseline, score=1.0)
        assert results[0].ok

    def test_tolerance_override(self):
        baseline = make_baseline(
            bench_a={"count": 1000, "normalized_rate": 100.0}
        )
        results, _ = check_report(
            {"bench_a": 1000 / 95.0}, baseline, tolerance=0.01, score=1.0
        )
        assert not results[0].ok

    def test_missing_benchmark_reported(self):
        baseline = make_baseline(
            bench_a={"count": 1000, "normalized_rate": 100.0},
            bench_b={"count": 500, "normalized_rate": 50.0},
        )
        results, missing = check_report({"bench_a": 10.0}, baseline, score=1.0)
        assert missing == ["bench_b"]
        assert len(results) == 1

    def test_normalization_cancels_machine_speed(self):
        baseline = make_baseline(
            bench_a={"count": 1000, "normalized_rate": 100.0}
        )
        # A machine 4x faster runs the bench 4x faster but also scores 4x
        # higher, so the normalized verdict is unchanged.
        slow, _ = check_report({"bench_a": 10.0}, baseline, score=1.0)
        fast, _ = check_report({"bench_a": 2.5}, baseline, score=4.0)
        assert slow[0].current_normalized == pytest.approx(
            fast[0].current_normalized
        )

    def test_captured_score_wins_over_the_host_score(self):
        baseline = make_baseline(
            bench_a={"count": 1000, "normalized_rate": 100.0},
            bench_b={"count": 1000, "normalized_rate": 100.0},
        )
        results, _ = check_report(
            {"bench_a": 10.0, "bench_b": 10.0}, baseline, score=4.0,
            captured={"bench_a": 1.0},
        )
        by_name = {result.name: result for result in results}
        assert by_name["bench_a"].current_normalized == pytest.approx(100.0)
        assert by_name["bench_a"].score == 1.0
        # No stamped score: the host score normalizes it.
        assert by_name["bench_b"].current_normalized == pytest.approx(25.0)
        assert by_name["bench_b"].score == 4.0

    def test_gate_result_format_names_verdict(self):
        ok = GateResult("bench_a", 100.0, 100.0, 80.0)
        bad = GateResult("bench_a", 10.0, 100.0, 80.0)
        assert "ok" in ok.format()
        assert "REGRESSION" in bad.format()

    def test_gate_result_delta_is_signed_percent(self):
        up = GateResult("bench_a", 110.0, 100.0, 80.0)
        down = GateResult("bench_a", 90.0, 100.0, 80.0)
        assert up.delta_pct == pytest.approx(10.0)
        assert down.delta_pct == pytest.approx(-10.0)

    def test_gate_result_format_shows_delta_arrow(self):
        up = GateResult("bench_a", 110.0, 100.0, 80.0)
        down = GateResult("bench_a", 90.0, 100.0, 80.0)
        assert "↑+10.0%" in up.format()
        assert "↓-10.0%" in down.format()


def write_bench_json(path, **mins):
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"min": value, "mean": value * 1.1}}
            for name, value in mins.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


class TestCli:
    def test_load_benchmark_json_uses_min(self, tmp_path):
        path = write_bench_json(tmp_path / "bench.json", bench_a=0.25)
        assert load_benchmark_json(path) == {"bench_a": 0.25}

    def _files(self, tmp_path, seconds):
        bench = write_bench_json(tmp_path / "bench.json", bench_a=seconds)
        baseline = tmp_path / "baseline.json"
        score = machine_score()
        baseline.write_text(json.dumps(make_baseline(
            bench_a={"count": 1000, "normalized_rate": 1000 / 10.0 / score}
        )))
        return str(bench), str(baseline)

    def test_check_passes(self, tmp_path, capsys):
        bench, baseline = self._files(tmp_path, seconds=10.0)
        assert perf.main(["check", bench, "--baseline", baseline]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        bench, baseline = self._files(tmp_path, seconds=100.0)
        assert perf.main(["check", bench, "--baseline", baseline]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_errors_on_missing_bench(self, tmp_path):
        bench = write_bench_json(tmp_path / "bench.json", bench_other=1.0)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline(
            bench_a={"count": 1000, "normalized_rate": 1.0}
        )))
        assert perf.main(["check", str(bench),
                          "--baseline", str(baseline)]) == 2

    def test_check_distinguishes_missing_baseline_file(self, tmp_path):
        # Exit 3 (baseline gone) must not masquerade as exit 2 (bench
        # absent from results) or 1 (regression): CI branches on them.
        bench = write_bench_json(tmp_path / "bench.json", bench_a=1.0)
        missing = tmp_path / "nowhere.json"
        assert perf.main(["check", str(bench),
                          "--baseline", str(missing)]) == 3

    def test_check_rejects_corrupt_baseline_file(self, tmp_path):
        bench = write_bench_json(tmp_path / "bench.json", bench_a=1.0)
        corrupt = tmp_path / "baseline.json"
        corrupt.write_text("{not json")
        assert perf.main(["check", str(bench),
                          "--baseline", str(corrupt)]) == 3
        corrupt.write_text(json.dumps({"tolerance": 0.2}))  # no benchmarks
        assert perf.main(["check", str(bench),
                          "--baseline", str(corrupt)]) == 3

    def test_update_errors_on_missing_baseline_file(self, tmp_path):
        bench = write_bench_json(tmp_path / "bench.json", bench_a=1.0)
        assert perf.main(["update", str(bench),
                          "--baseline", str(tmp_path / "gone.json")]) == 3

    def test_exit_code_constants(self):
        assert (perf.EXIT_OK, perf.EXIT_REGRESSION,
                perf.EXIT_MISSING_BENCH, perf.EXIT_MISSING_BASELINE) \
            == (0, 1, 2, 3)

    def test_update_rewrites_baseline(self, tmp_path):
        bench, baseline = self._files(tmp_path, seconds=5.0)
        assert perf.main(["update", bench, "--baseline", baseline]) == 0
        refreshed = json.loads(open(baseline).read())
        spec = refreshed["benchmarks"]["bench_a"]
        assert spec["raw_rate_at_capture"] == pytest.approx(200.0)
        assert "machine_score_at_capture" in refreshed
        # A check against the freshly updated baseline passes.
        assert perf.main(["check", bench, "--baseline", baseline]) == 0


def write_tagged_bench_json(path, name="bench_a", seconds=1.0, score=1.0,
                            sha="cafe" * 10, schema=RATE_SCHEMA):
    extra = {
        "schema": schema,
        "name": name,
        "metric": "events/s",
        "machine_score": score,
        "git_sha": sha,
    }
    path.write_text(json.dumps({
        "benchmarks": [
            {"name": name, "stats": {"min": seconds}, "extra_info": extra},
            # An untagged entry rides along in every file (e.g. a bench
            # that predates the report_rate fixture).
            {"name": "bench_untagged", "stats": {"min": seconds}},
        ],
    }))
    return path


class TestProvenance:
    def test_load_returns_only_tagged_entries(self, tmp_path):
        path = write_tagged_bench_json(tmp_path / "bench.json")
        provenance = load_benchmark_provenance(path)
        assert set(provenance) == {"bench_a"}
        assert provenance["bench_a"]["git_sha"] == "cafe" * 10
        assert provenance["bench_a"]["machine_score"] == 1.0

    def test_wrong_schema_tag_excluded(self, tmp_path):
        path = write_tagged_bench_json(tmp_path / "bench.json",
                                       schema="somebody.else/rate@9")
        assert load_benchmark_provenance(path) == {}

    def test_load_capture_scores_skips_unstamped(self, tmp_path):
        path = write_tagged_bench_json(tmp_path / "bench.json", score=0.5)
        assert load_capture_scores(path) == {"bench_a": 0.5}
        path = write_tagged_bench_json(tmp_path / "bench.json", score=None)
        assert load_capture_scores(path) == {}

    def test_check_reads_the_stamped_normalized_rate(
        self, tmp_path, capsys, monkeypatch
    ):
        # Captured at score 0.5, at exactly the baseline's normalized
        # rate, and checked on a host scoring 1.0: the gate compares the
        # rate the bench stamped, not one re-normalized by this host.
        monkeypatch.setattr(perf, "_machine_score", 1.0)
        bench = write_tagged_bench_json(tmp_path / "bench.json",
                                        seconds=10.0, score=0.5)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline(
            bench_a={"count": 1000, "normalized_rate": 1000 / 10.0 / 0.5}
        )))
        assert perf.main(["check", str(bench),
                          "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "normalized 200.0 vs baseline 200.0 (↑+0.0%" in out
        assert "@ score 0.50 ok" in out

    def test_update_keeps_the_stamped_normalized_rate(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(perf, "_machine_score", 1.0)
        bench = write_tagged_bench_json(tmp_path / "bench.json",
                                        seconds=10.0, score=0.5)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_baseline(
            bench_a={"count": 1000, "normalized_rate": 1.0}
        )))
        assert perf.main(["update", str(bench),
                          "--baseline", str(baseline)]) == 0
        refreshed = json.loads(baseline.read_text())
        assert refreshed["benchmarks"]["bench_a"]["normalized_rate"] == 200.0
        assert refreshed["machine_score_at_capture"] == 0.5
