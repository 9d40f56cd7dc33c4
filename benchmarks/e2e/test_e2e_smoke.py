"""Smoke test of the end-to-end benchmark: every workload at tiny size.

Checks the benchmark's contract rather than its numbers: each workload
emits every metric BENCHMARK.json names, with its unit, in both modes;
traced and untraced runs simulate identically; a failed correctness
check makes the run exit 1; ``compare`` refuses a claim it cannot judge.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import suite  # noqa: E402
from repro.fleet import example_spec  # noqa: E402
from repro.ipsec.replay_window import BitmapReplayWindow, Verdict  # noqa: E402

TINY = {
    "pair_stream": lambda workdir: suite.PairStream(messages=300),
    "pair_faults": lambda workdir: suite.PairFaults(sends=400, reset_every=100),
    "gateway_recovery": lambda workdir: suite.GatewayRecovery(n_sas=2, sends=30),
    "fleet_observed": lambda workdir: suite.FleetObserved(
        workdir, per_scenario=2, sample=100, slices=2,
        spec=lambda base_seed: example_spec(sessions=8, base_seed=base_seed),
    ),
}


@pytest.fixture
def tiny(monkeypatch: pytest.MonkeyPatch) -> None:
    for name, make in TINY.items():
        monkeypatch.setitem(suite.WORKLOADS, name, make)
    # A fresh set-up process would build the full-size workload.
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def invoke(name: str, trace: int, out: Path, capsys: pytest.CaptureFixture) -> tuple[int, list[str]]:
    code = run.main([
        "--workload", name, "--seed", "3", "--seconds", "0.001",
        "--trace", str(trace), "--out", str(out),
    ])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_emits_every_metric(name, tiny, tmp_path, capsys):
    bench = run.load_benchmark()
    assert name in {workload["name"] for workload in bench["workloads"]}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = invoke(name, trace, tmp_path, capsys)
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"], lines
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {spec["name"]: spec["unit"] for spec in bench[kind]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        for metric, unit in declared.items():
            assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}")
                       for line in lines), metric
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
    runs = [json.loads(line) for line in
            (tmp_path / "runs.jsonl").read_text().splitlines()]
    assert [r["trace"] for r in runs] == [0, 1]
    assert runs[0]["digest"] == runs[1]["digest"]


def test_failed_check_exits_1(tiny, tmp_path, capsys, monkeypatch):
    # A window that accepts every in-window sequence number lets the
    # replayed packets through: the replay check must fail the run.
    update = BitmapReplayWindow.update

    def accept_replays(window: BitmapReplayWindow, seq: int) -> Verdict:
        if seq <= window.right_edge:
            return Verdict.ACCEPT_IN_WINDOW
        return update(window, seq)

    monkeypatch.setattr(BitmapReplayWindow, "update", accept_replays)
    code, lines = invoke("pair_faults", 0, tmp_path, capsys)
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any("replays accepted" in line for line in lines)


def test_setup_child_times_a_fresh_process():
    assert 0 < run.setup_child("pair_stream", 3) < 60


def test_compare_refuses_unjudged_claims(tmp_path, capsys):
    bench = run.load_benchmark()
    runs = tmp_path / "runs.jsonl"
    runs.write_text(json.dumps({
        "workload": "pair_stream", "seed": 1, "trace": 0, "correct": True,
        "digest": "same",
        "metrics": {spec["name"]: 1.0 for spec in bench["end_to_end"]},
    }) + "\n")
    assert run.main(["compare", str(runs), str(runs)]) == 0
    for claim in ("msgs_per_s:pair_strem", "msgs_per_sec:pair_stream"):
        capsys.readouterr()
        assert run.main(["compare", str(runs), str(runs), "--claim", claim]) == 1
        assert f"claim {claim} was not judged" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exited:
        run.main(["compare", str(runs), str(runs), "--claim", "msgs_per_s"])
    assert exited.value.code == 2
