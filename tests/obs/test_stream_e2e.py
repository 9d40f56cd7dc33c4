"""End-to-end streaming telemetry: live runs, parity, and the SIGKILL test.

The acceptance property this file pins (ISSUE PR 9): a campaign killed
with SIGKILL mid-flight leaves a ``progress.jsonl`` whose replayed
:class:`CampaignView` matches the healed result store exactly — zero
lost tasks, zero phantom tasks — and each SIGTERMed worker's flight
dump is schema-valid.  Stream-off runs must stay byte-identical to the
pre-streaming runner.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

from repro.fleet import runner as runner_module
from repro.fleet.results import ResultStore, progress_ledger_path
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import CampaignSpec, ScenarioGrid
from repro.obs.export import validate_flight_dump, validate_progress_file
from repro.obs.flightrec import load_flight
from repro.obs.stream import CampaignView, StreamConfig
from repro.obs.top import render_dashboard

SRC = str(Path(__file__).resolve().parents[2] / "src")


def small_spec(sessions=6):
    return CampaignSpec(
        name="stream-e2e",
        base_seed=2003,
        grids=(ScenarioGrid(
            scenario="sender_reset",
            params={"k": 25, "reset_after_sends": [40, 50, 60],
                    "messages_after_reset": 60},
            sessions=sessions,
        ),),
    )


def observed_spec():
    """:func:`small_spec` plus one failing session: k=25 at 2 SAs under
    the serial store policy breaks the gap bound, so an observed run
    keeps that session's metrics file."""
    return CampaignSpec(
        name="stream-e2e",
        base_seed=2003,
        grids=small_spec(sessions=2).grids + (ScenarioGrid(
            scenario="gateway_crash",
            params={"n_sas": 2, "k": 25, "store_policy": "serial",
                    "crash_after_sends": 60, "messages_after_reset": 60},
        ),),
    )


def streamed_runner(tmp_path, jobs=1, **stream_kwargs):
    store = ResultStore(tmp_path / "results.jsonl")
    stream = StreamConfig(
        ledger_path=progress_ledger_path(store), **stream_kwargs
    )
    return FleetRunner(small_spec(), store, jobs=jobs, stream=stream), store


class TestStreamedRunner:
    def check_run(self, tmp_path, jobs):
        runner, store = streamed_runner(tmp_path, jobs=jobs)
        outcome = runner.run()
        assert len(outcome.executed) == 6
        ledger = progress_ledger_path(store)
        assert validate_progress_file(ledger) == []
        replayed = CampaignView.replay(ledger)
        assert replayed.completed == store.completed_ids()
        assert replayed.finished is True
        assert replayed.total == 6
        # Live view and replayed view render the identical dashboard.
        assert render_dashboard(runner.view) == render_dashboard(replayed)
        return replayed

    def test_serial_streamed_campaign(self, tmp_path):
        view = self.check_run(tmp_path, jobs=1)
        assert set(view.workers) == {"w0"}

    def test_pooled_streamed_campaign(self, tmp_path):
        view = self.check_run(tmp_path, jobs=2)
        # Pool workers are named by pool identity; the parent's
        # task_finished events attribute to them via task_started.
        assert all(name.startswith("w") for name in view.workers)
        assert sum(w.tasks_done for w in view.workers.values()) == 6

    def test_resume_skips_and_reconciles(self, tmp_path):
        runner, store = streamed_runner(tmp_path, jobs=1)
        runner.run()
        again, _ = streamed_runner(tmp_path, jobs=1)
        again.store = store
        outcome = again.run()
        assert outcome.skipped == 6
        assert len(outcome.executed) == 0
        view = CampaignView.replay(progress_ledger_path(store))
        assert view.runs == 2
        assert view.completed == store.completed_ids()

    def test_pooled_ledger_has_one_task_started_per_task(self, tmp_path):
        runner, store = streamed_runner(tmp_path, jobs=2)
        runner.run()
        lines = progress_ledger_path(store).read_text().splitlines()
        started = Counter(
            event["task_id"]
            for event in map(json.loads, lines)
            if event["kind"] == "task_started"
        )
        task_ids = {task.task_id for task in small_spec().tasks()}
        assert set(started) == task_ids
        assert set(started.values()) == {1}

    def test_pooled_drain_thread_stops_on_sentinel(self, tmp_path, monkeypatch):
        # A poll far longer than the run: a drain thread that waited
        # for a timeout to notice the end would still be alive after
        # run() gave up joining it.
        monkeypatch.setattr(runner_module, "_DRAIN_POLL_S", 600.0)
        before = set(threading.enumerate())
        runner, _ = streamed_runner(tmp_path, jobs=2)
        runner.run()
        lingering = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
        ]
        # Neither the drain thread nor the parent queue's feeder thread
        # outlives the run.
        assert lingering == []

    def test_snapshot_events_carry_merged_rollup(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        stream = StreamConfig(
            ledger_path=progress_ledger_path(store), snapshot_every=2
        )
        runner = FleetRunner(
            small_spec(), store, jobs=1, stream=stream,
            obs_dir=tmp_path / "obs",
        )
        runner.run()
        assert runner.view.rollup["tasks"] == 6
        assert runner.view.rollup["counters"]["resets"] >= 6


class TestStreamOffParity:
    def run_store(self, tmp_path, stream):
        store = ResultStore(tmp_path / "results.jsonl")
        config = (
            StreamConfig(ledger_path=progress_ledger_path(store))
            if stream else None
        )
        FleetRunner(small_spec(), store, jobs=1, stream=config).run()
        return (tmp_path / "results.jsonl").read_bytes()

    def test_store_identical_with_and_without_stream(self, tmp_path):
        # wall_time is the one field excluded from determinism
        # comparisons (it differs between ANY two runs); everything
        # else in the store must be unaffected by streaming.
        def canonical(raw):
            records = []
            for line in raw.decode("utf-8").splitlines():
                record = json.loads(line)
                record.pop("wall_time", None)
                records.append(record)
            return records

        off = self.run_store(tmp_path / "off", stream=False)
        on = self.run_store(tmp_path / "on", stream=True)
        assert canonical(off) == canonical(on)
        # Byte-level: the lines differ only inside their wall_time field.
        assert len(off.splitlines()) == len(on.splitlines())

    def test_stream_off_writes_no_ledger_or_flight_files(self, tmp_path):
        self.run_store(tmp_path, stream=False)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "results.jsonl",
        ]

    def run_observed(self, tmp_path, stream):
        store = ResultStore(tmp_path / "results.jsonl")
        config = (
            StreamConfig(ledger_path=progress_ledger_path(store))
            if stream else None
        )
        outcome = FleetRunner(
            observed_spec(), store, jobs=1, stream=config,
            obs_dir=tmp_path / "obs",
        ).run()
        failing = [r for r in outcome.executed if r.failing]
        assert len(failing) == 1
        metrics_files = list((tmp_path / "obs").rglob("*.metrics.jsonl"))
        assert metrics_files == [
            tmp_path / "obs" / f"{failing[0].task_id}.metrics.jsonl"
        ]
        return outcome.executed, metrics_files[0].read_text(encoding="utf-8")

    # A rollup folds the ``worker/`` label away, as it folds ``saN/``.
    WORKER_GAUGES = {"cpu_time", "rss_bytes", "task_cpu", "task_rss_growth"}

    def test_stream_off_metrics_have_no_worker_instruments(self, tmp_path):
        records, failing_file = self.run_observed(tmp_path, stream=False)
        for record in records:
            gauges = record.metrics["obs"]["worst_gauges"]
            assert not self.WORKER_GAUGES & set(gauges)
        assert "worker/" not in failing_file

    def test_streamed_observed_metrics_gain_worker_instruments(self, tmp_path):
        records, failing_file = self.run_observed(tmp_path, stream=True)
        for record in records:
            gauges = record.metrics["obs"]["worst_gauges"]
            assert self.WORKER_GAUGES <= set(gauges)
        assert "worker/task_cpu" in failing_file


KILL_DRIVER = """\
import multiprocessing
import os
import signal
import sys
import time

from repro.fleet.results import ResultStore, progress_ledger_path
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import CampaignSpec, ScenarioGrid
from repro.obs.stream import StreamConfig

out = sys.argv[1]
spec = CampaignSpec(
    name="kill-e2e",
    base_seed=2003,
    grids=(ScenarioGrid(
        scenario="gateway_crash",
        params={"n_sas": 6, "crash_after_sends": 250,
                "messages_after_reset": 250},
        sessions=10,
    ),),
)
store = ResultStore(os.path.join(out, "results.jsonl"))
stream = StreamConfig(ledger_path=progress_ledger_path(store))


def progress(done, pending, record):
    if done >= 2:
        # SIGTERM the pool workers mid-task (they dump flight rings),
        # give the dumps a moment to land, then die without cleanup.
        for child in multiprocessing.active_children():
            os.kill(child.pid, signal.SIGTERM)
        time.sleep(1.0)
        # The pool maintenance thread respawns replacements for the
        # SIGTERMed workers during the sleep; SIGKILL them too so no
        # orphan outlives the parent holding its stdio pipes open.
        for child in multiprocessing.active_children():
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        os.kill(os.getpid(), signal.SIGKILL)


FleetRunner(spec, store, jobs=2, progress=progress, stream=stream).run()
"""


class TestSigkillAcceptance:
    def launch_and_kill(self, tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(KILL_DRIVER, encoding="utf-8")
        out = tmp_path / "run"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=SRC)
        # Redirect stdio to files and wait on the *process*, not on pipe
        # EOF: any straggler grandchild inheriting the pipes would keep
        # a capture_output wait blocked long after the driver died.
        with (tmp_path / "driver.out").open("wb") as out_file, \
                (tmp_path / "driver.err").open("wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, str(driver), str(out)],
                env=env, stdout=out_file, stderr=err_file,
            )
            returncode = proc.wait(timeout=120)
        assert returncode == -signal.SIGKILL, (
            f"driver should die by SIGKILL, got {returncode}:\n"
            f"{(tmp_path / 'driver.err').read_text(encoding='utf-8')}"
        )
        return out

    def test_sigkill_leaves_exact_replayable_state(self, tmp_path):
        out = self.launch_and_kill(tmp_path)
        ledger = out / "progress.jsonl"
        assert ledger.exists()
        # The torn ledger still schema-validates (salvage drops at most
        # the torn tail line).
        assert validate_progress_file(ledger) == []

        store = ResultStore(out / "results.jsonl")  # heals on open
        completed = store.completed_ids()
        assert len(completed) >= 2  # the kill fired after 2 records

        view = CampaignView.replay(ledger)
        # Zero phantom tasks: persist order is store-then-ledger, so a
        # ledger task_finished implies a durable store record.
        assert view.completed <= completed
        # Zero lost tasks beyond the record in flight at the kill.
        assert len(completed - view.completed) <= 1

        # Resume with the same store: reconciliation closes the gap and
        # the finished campaign agrees everywhere.
        spec = CampaignSpec(
            name="kill-e2e",
            base_seed=2003,
            grids=(ScenarioGrid(
                scenario="gateway_crash",
                params={"n_sas": 6, "crash_after_sends": 250,
                        "messages_after_reset": 250},
                sessions=10,
            ),),
        )
        stream = StreamConfig(ledger_path=progress_ledger_path(store))
        runner = FleetRunner(spec, store, jobs=2, stream=stream)
        outcome = runner.run()
        assert outcome.skipped == len(completed)
        assert runner.view.completed == store.completed_ids()
        assert len(store.completed_ids()) == 10
        assert validate_progress_file(ledger) == []
        final = CampaignView.replay(ledger)
        assert final.completed == store.completed_ids()
        assert final.recovered == completed - view.completed
        assert render_dashboard(runner.view) == render_dashboard(final)

    def test_killed_workers_left_valid_flight_dumps(self, tmp_path):
        out = self.launch_and_kill(tmp_path)
        dumps = sorted(out.glob("flight_*.json"))
        # Workers were mid-task when SIGTERMed (slow tasks, chunksize
        # 1), so at least one ring dumped; every dump must validate.
        assert dumps, "no flight dumps written by SIGTERMed workers"
        for path in dumps:
            dump = load_flight(path)
            assert validate_flight_dump(dump) == []
            assert dump["reason"] == "sigterm"
            assert dump["current_task"] is not None
            kinds = [event["kind"] for event in dump["events"]]
            assert "task_started" in kinds
