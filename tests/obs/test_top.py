"""Tests for repro.obs.top — dashboard rendering and the follow loop."""

import io

import pytest

from repro.obs.health import HealthState
from repro.obs.stream import (
    CampaignView,
    ProgressEvent,
    ProgressLedger,
    WorkerStatus,
)
from repro.obs.top import (
    ANSI_CLEAR,
    find_ledger,
    render_dashboard,
    run_top,
    worker_health,
)


def write_campaign_ledger(path, tasks=4, finish=True, error_ids=()):
    ledger = ProgressLedger(path)
    ledger.append(ProgressEvent(
        kind="campaign_started", time=0.0,
        data={"campaign": "demo", "total": tasks, "skipped": 0, "jobs": 2},
    ))
    clock = 1.0
    for index in range(tasks):
        task_id = f"task{index}"
        worker = f"w{index % 2 + 1}"
        ledger.append(ProgressEvent(kind="task_started", time=clock,
                                    worker=worker, task_id=task_id))
        clock += 0.5
        kind = "task_errored" if task_id in error_ids else "task_finished"
        data = {"wall_time": 0.5}
        if kind == "task_errored":
            data["error"] = "boom"
        ledger.append(ProgressEvent(kind=kind, time=clock, task_id=task_id,
                                    data=data))
        clock += 0.5
    if finish:
        ledger.append(ProgressEvent(kind="campaign_finished", time=clock,
                                    data={"executed": tasks}))
    ledger.close()
    return path


class TestWorkerHealth:
    def view(self, finished=False, mean_wall=1.0):
        view = CampaignView()
        view.wall_time_sum = mean_wall
        view.wall_time_count = 1
        view.finished = finished
        return view

    def test_fresh_worker_is_green(self):
        worker = WorkerStatus("w1", last_seen=100.0)
        assert worker_health(worker, self.view(), 101.0) == HealthState.GREEN

    def test_stale_heartbeat_goes_yellow(self):
        worker = WorkerStatus("w1", last_seen=100.0)
        assert worker_health(worker, self.view(), 120.0) == HealthState.YELLOW

    def test_two_red_signals_go_red(self):
        worker = WorkerStatus(
            "w1", last_seen=100.0, errors=5,
            current_task="t", task_started_at=100.0,
        )
        # heartbeat_age 200s (RED), errors 5 (RED) -> RED.
        assert worker_health(worker, self.view(), 300.0) == HealthState.RED

    def test_stalled_task_contributes(self):
        worker = WorkerStatus(
            "w1", last_seen=99.0, current_task="t", task_started_at=90.0,
        )
        # 10s on a 1s-mean task: stall_factor 10 -> YELLOW vote.
        assert worker_health(worker, self.view(), 100.0) == HealthState.YELLOW

    def test_finished_campaign_is_always_green(self):
        worker = WorkerStatus("w1", last_seen=0.0, errors=50)
        view = self.view(finished=True)
        assert worker_health(worker, view, 1e9) == HealthState.GREEN


class TestRenderDashboard:
    def test_header_and_progress(self, tmp_path):
        path = write_campaign_ledger(tmp_path / "progress.jsonl")
        frame = render_dashboard(CampaignView.replay(path))
        assert "campaign demo" in frame
        assert "[FINISHED]" in frame
        assert "4/4 (100.0%)" in frame
        assert "w1" in frame and "w2" in frame

    def test_errored_tasks_listed(self, tmp_path):
        path = write_campaign_ledger(tmp_path / "progress.jsonl",
                                     error_ids={"task1"})
        frame = render_dashboard(CampaignView.replay(path))
        assert "errors=1" in frame
        assert "task1: boom" in frame

    def test_live_and_replay_render_identically(self, tmp_path):
        # The acceptance property: the frame a live fold renders equals
        # the frame a post-mortem replay of the same ledger renders.
        path = write_campaign_ledger(tmp_path / "progress.jsonl")
        from repro.obs.stream import read_ledger

        live = CampaignView()
        for event in read_ledger(path):
            live.fold(event)
        assert render_dashboard(live) == render_dashboard(
            CampaignView.replay(path)
        )

    def test_unfinished_ledger_renders_running(self, tmp_path):
        path = write_campaign_ledger(tmp_path / "progress.jsonl",
                                     finish=False)
        assert "[RUNNING]" in render_dashboard(CampaignView.replay(path))

    def test_empty_view_renders(self):
        frame = render_dashboard(CampaignView())
        assert "campaign ?" in frame
        assert "0/0" in frame

    def test_frame_shows_worker_health_and_worst_tasks(self, tmp_path):
        path = write_campaign_ledger(tmp_path / "progress.jsonl")
        lines = render_dashboard(CampaignView.replay(path)).splitlines()
        header = lines.index(next(line for line in lines
                                   if line.startswith("worker ")))
        assert [line.split()[:2] for line in lines[header + 1:header + 3]] == [
            ["w1", "GREEN"], ["w2", "GREEN"],
        ]
        worst = lines.index("worst tasks (wall_s  task_id)")
        assert [line.split()[1] for line in lines[worst + 1:]] == [
            "task3", "task2", "task1", "task0",
        ]


class TestFindLedger:
    def test_accepts_the_file_itself(self, tmp_path):
        path = write_campaign_ledger(tmp_path / "progress.jsonl")
        assert find_ledger(path) == path

    def test_accepts_the_out_dir(self, tmp_path):
        path = write_campaign_ledger(tmp_path / "progress.jsonl")
        assert find_ledger(tmp_path) == path

    def test_accepts_a_parent_with_one_run(self, tmp_path):
        run = tmp_path / "runs" / "campaign"
        run.mkdir(parents=True)
        path = write_campaign_ledger(run / "progress.jsonl")
        assert find_ledger(tmp_path / "runs") == path

    def test_ambiguous_parent_raises(self, tmp_path):
        for name in ("a", "b"):
            run = tmp_path / name
            run.mkdir()
            write_campaign_ledger(run / "progress.jsonl")
        with pytest.raises(FileNotFoundError):
            find_ledger(tmp_path)

    def test_missing_raises_with_hint(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--stream"):
            find_ledger(tmp_path)


class TestRunTop:
    def test_once_renders_single_frame(self, tmp_path):
        path = write_campaign_ledger(tmp_path / "progress.jsonl")
        out = io.StringIO()
        view = run_top(tmp_path, once=True, out=out)
        assert view.finished is True
        text = out.getvalue()
        assert ANSI_CLEAR not in text  # one-shot mode does not clear
        assert "[FINISHED]" in text

    def test_follow_stops_at_campaign_finished(self, tmp_path):
        path = write_campaign_ledger(tmp_path / "progress.jsonl")
        out = io.StringIO()
        view = run_top(tmp_path, follow=True, refresh=0.01, out=out)
        assert view.finished is True
        assert ANSI_CLEAR in out.getvalue()

    def test_follow_final_frame_matches_once_frame(self, tmp_path):
        # Acceptance: live follow and finished-ledger replay render the
        # identical final dashboard.
        path = write_campaign_ledger(tmp_path / "progress.jsonl")
        follow_out = io.StringIO()
        run_top(tmp_path, follow=True, refresh=0.01, out=follow_out)
        once_out = io.StringIO()
        run_top(tmp_path, once=True, out=once_out)
        final_frame = follow_out.getvalue().split(ANSI_CLEAR)[-1]
        assert final_frame == once_out.getvalue()

    def test_follow_max_frames_bounds_unfinished_ledger(self, tmp_path):
        write_campaign_ledger(tmp_path / "progress.jsonl", finish=False)
        out = io.StringIO()
        view = run_top(tmp_path, follow=True, refresh=0.01, out=out,
                       max_frames=2)
        assert view.finished is False
        assert out.getvalue().count(ANSI_CLEAR) == 2
