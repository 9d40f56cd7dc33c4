"""Tests for repro.obs.stream — events, ledger, view fold, reconciliation."""

import json

import pytest

from repro.obs.hub import merge_rollups
from repro.obs.stream import (
    EVENT_KINDS,
    PROGRESS_SCHEMA,
    CampaignStream,
    CampaignView,
    LedgerTail,
    ProgressEvent,
    ProgressLedger,
    StreamConfig,
    read_ledger,
)


class TestProgressEvent:
    def test_round_trip(self):
        event = ProgressEvent(
            kind="task_finished", time=12.5, worker="w1",
            task_id="g0/s00001", data={"wall_time": 0.25},
        )
        again = ProgressEvent.from_dict(json.loads(event.to_json()))
        assert again == event

    def test_schema_tag_only_on_campaign_started(self):
        started = ProgressEvent(kind="campaign_started", time=1.0)
        other = ProgressEvent(kind="task_started", time=1.0, task_id="t")
        assert started.to_dict()["schema"] == PROGRESS_SCHEMA
        assert "schema" not in other.to_dict()

    def test_empty_fields_omitted(self):
        line = ProgressEvent(kind="worker_heartbeat", time=1.0).to_dict()
        assert "worker" not in line
        assert "task_id" not in line
        assert "data" not in line

    def test_every_kind_is_known(self):
        assert len(EVENT_KINDS) == 7
        assert "campaign_started" in EVENT_KINDS
        assert "campaign_finished" in EVENT_KINDS


class TestProgressLedger:
    def test_append_is_durable_per_event(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        ledger = ProgressLedger(path)
        ledger.append(ProgressEvent(kind="campaign_started", time=1.0))
        # Durable before close: a reader sees the event immediately.
        assert len(list(read_ledger(path))) == 1
        ledger.close()

    def test_heals_dangling_tail_on_open(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        event = ProgressEvent(kind="campaign_started", time=1.0)
        path.write_text(event.to_json() + "\n" + '{"kind": "task_sta',
                        encoding="utf-8")
        ledger = ProgressLedger(path)
        ledger.append(ProgressEvent(kind="campaign_finished", time=2.0))
        ledger.close()
        errors: list[str] = []
        events = list(read_ledger(path, errors=errors))
        # The torn fragment is lost; the next append is not glued to it.
        assert [e.kind for e in events] == [
            "campaign_started", "campaign_finished",
        ]
        assert len(errors) == 1

    def test_read_ledger_skips_non_event_objects(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_text('{"not_an_event": true}\n', encoding="utf-8")
        errors: list[str] = []
        assert list(read_ledger(path, errors=errors)) == []
        assert any("non-event" in e for e in errors)

    def test_missing_ledger_replays_empty(self, tmp_path):
        view = CampaignView.replay(tmp_path / "absent.jsonl")
        assert view.events_folded == 0
        assert view.done == 0


def feed(view, events):
    for event in events:
        view.fold(event)
    return view


def campaign_events(tasks=3, jobs=2, error_ids=()):
    """A plausible full campaign event sequence."""
    events = [ProgressEvent(
        kind="campaign_started", time=0.0,
        data={"campaign": "t", "total": tasks, "skipped": 0, "jobs": jobs},
    )]
    clock = 1.0
    for index in range(tasks):
        task_id = f"task{index}"
        worker = f"w{index % jobs + 1}"
        events.append(ProgressEvent(kind="task_started", time=clock,
                                    worker=worker, task_id=task_id))
        clock += 1.0
        if task_id in error_ids:
            events.append(ProgressEvent(
                kind="task_errored", time=clock, task_id=task_id,
                data={"wall_time": 1.0, "error": "boom"},
            ))
        else:
            events.append(ProgressEvent(
                kind="task_finished", time=clock, task_id=task_id,
                data={"wall_time": 1.0 + index},
            ))
        clock += 1.0
    events.append(ProgressEvent(kind="campaign_finished", time=clock,
                                data={"executed": tasks}))
    return events


class TestCampaignView:
    def test_fold_counts_and_attribution(self):
        view = feed(CampaignView(), campaign_events(tasks=4, jobs=2))
        assert view.campaign == "t"
        assert view.total == 4
        assert view.done == 4
        assert view.errors == 0
        assert view.finished is True
        assert view.running == {}
        # Finishes are parent-emitted (worker="") but attributed to the
        # worker that announced task_started, via the running map.
        assert view.workers["w1"].tasks_done == 2
        assert view.workers["w2"].tasks_done == 2

    def test_finish_before_start_still_credits_the_worker(self):
        # A pool worker's task_started crosses a queue while its result
        # returns through the pool, so the ledger can hold a task's
        # finish before its start.
        events = campaign_events(tasks=4, jobs=2, error_ids={"task1"})
        for start in (3, 7):  # task1's and task3's task_started
            events[start], events[start + 1] = events[start + 1], events[start]
        assert [e.kind for e in events[3:5]] == ["task_errored", "task_started"]
        view = feed(CampaignView(), events)
        assert view.running == {}
        assert view.workers["w1"].tasks_done == 2
        assert view.workers["w2"].tasks_done == 2
        assert view.workers["w2"].errors == 1
        assert all(w.current_task is None for w in view.workers.values())

    def test_errored_tasks_tracked_separately(self):
        view = feed(CampaignView(),
                    campaign_events(tasks=3, error_ids={"task1"}))
        assert view.done == 2
        assert view.errored == {"task1": "boom"}
        assert view.workers["w2"].errors == 1

    def test_finish_after_error_clears_it(self):
        events = campaign_events(tasks=2, error_ids={"task0"})
        retry = [
            ProgressEvent(kind="campaign_started", time=10.0,
                          data={"total": 2, "skipped": 1, "jobs": 1}),
            ProgressEvent(kind="task_finished", time=11.0, task_id="task0",
                          data={"wall_time": 0.5}),
        ]
        view = feed(CampaignView(), events + retry)
        assert view.errored == {}
        assert view.done == 2
        assert view.runs == 2

    def test_heartbeat_updates_worker_resources(self):
        view = CampaignView()
        view.fold(ProgressEvent(
            kind="worker_heartbeat", time=5.0, worker="w1",
            data={"resources": {"cpu_user": 1.5, "cpu_system": 0.5,
                                "rss_bytes": 1 << 20}},
        ))
        worker = view.workers["w1"]
        assert worker.cpu_time == 2.0
        assert worker.rss_bytes == 1 << 20
        assert worker.last_seen == 5.0

    def test_snapshot_installs_rollup(self):
        view = CampaignView()
        view.fold(ProgressEvent(kind="snapshot", time=1.0,
                                data={"rollup": {"counters": {"x": 1}}}))
        assert view.rollup == {"counters": {"x": 1}}

    def test_worst_outliers_bounded_and_sorted(self):
        events = campaign_events(tasks=9, jobs=1)
        view = feed(CampaignView(), events)
        outliers = view.worst_outliers()
        assert len(outliers) == 5
        walls = [wall for wall, _ in outliers]
        assert walls == sorted(walls, reverse=True)
        assert outliers[0] == (9.0, "task8")

    def test_throughput_and_eta(self):
        view = feed(CampaignView(), campaign_events(tasks=4)[:-2])
        # 3 finishes at times 2, 4, 6 -> 2 intervals over 4 seconds.
        assert view.throughput() == pytest.approx(0.5)
        assert view.eta_seconds() == pytest.approx(2.0)

    def test_replay_equals_live_fold(self, tmp_path):
        events = campaign_events(tasks=5, jobs=2, error_ids={"task2"})
        path = tmp_path / "progress.jsonl"
        ledger = ProgressLedger(path)
        live = CampaignView()
        for event in events:
            ledger.append(event)
            live.fold(event)
        ledger.close()
        replayed = CampaignView.replay(path)
        assert replayed.as_dict() == live.as_dict()
        assert replayed.completed == live.completed
        assert replayed.worst_outliers() == live.worst_outliers()

    def test_torn_tail_replays_to_last_acknowledged_state(self, tmp_path):
        events = campaign_events(tasks=3)
        path = tmp_path / "progress.jsonl"
        text = "".join(event.to_json() + "\n" for event in events)
        # Tear mid-way through the final event's line (a kill -9).
        path.write_text(text[: len(text) - 20], encoding="utf-8")
        view = CampaignView.replay(path)
        assert view.done == 3
        assert view.finished is False  # the torn campaign_finished is lost


class TestCampaignStream:
    def test_persist_before_fold(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        stream = CampaignStream.open(path)

        class Boom(RuntimeError):
            pass

        original_fold = stream.view.fold

        def failing_fold(event):
            raise Boom()

        stream.view.fold = failing_fold
        with pytest.raises(Boom):
            stream.emit(ProgressEvent(kind="campaign_started", time=1.0))
        stream.view.fold = original_fold
        stream.close()
        # The event hit the disk even though the fold blew up.
        assert len(list(read_ledger(path))) == 1

    def test_open_reconciles_store_completions(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        first = CampaignStream.open(path)
        for event in campaign_events(tasks=2)[:-1]:
            first.emit(event)
        first.close()
        # The store says task2 also completed (its task_finished event
        # died with the parent); reopen must close the gap.
        stream = CampaignStream.open(
            path, completed_ids={"task0", "task1", "task2"}, now=99.0
        )
        assert stream.view.completed == {"task0", "task1", "task2"}
        assert stream.view.recovered == {"task2"}
        stream.close()
        # And the reconciliation is durable: a fresh replay agrees.
        assert CampaignView.replay(path).completed == {
            "task0", "task1", "task2",
        }

    def test_recovered_events_skip_wall_stats(self, tmp_path):
        stream = CampaignStream.open(
            tmp_path / "p.jsonl", completed_ids={"a", "b"}, now=1.0
        )
        assert stream.view.done == 2
        assert stream.view.wall_time_count == 0
        assert stream.view.worst_outliers() == []
        stream.close()

    def test_snapshot_merges_rollups(self, tmp_path):
        stream = CampaignStream.open(tmp_path / "p.jsonl")
        stream.emit_snapshot(1.0, rollups=[
            {"counters": {"resets": 1}},
            {"counters": {"resets": 2}},
        ])
        stream.emit_snapshot(2.0, rollups=[{"counters": {"resets": 4}}])
        assert stream.view.rollup["counters"]["resets"] == 7
        assert stream.view.rollup["tasks"] == 3
        stream.close()

    def test_merge_rollups_is_associative_over_tasks(self):
        rollups = [{"counters": {"x": i}} for i in range(1, 4)]
        all_at_once = merge_rollups(rollups)
        incremental = merge_rollups(
            [merge_rollups(rollups[:2])] + rollups[2:]
        )
        assert incremental == all_at_once
        assert all_at_once["tasks"] == 3


class TestLedgerTail:
    def test_incremental_polling(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        tail = LedgerTail(path)
        assert tail.poll() == []  # file does not exist yet
        ledger = ProgressLedger(path)
        ledger.append(ProgressEvent(kind="campaign_started", time=1.0))
        assert [e.kind for e in tail.poll()] == ["campaign_started"]
        assert tail.poll() == []
        ledger.append(ProgressEvent(kind="campaign_finished", time=2.0))
        assert [e.kind for e in tail.poll()] == ["campaign_finished"]
        ledger.close()

    def test_partial_tail_line_buffers_until_newline(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        event = ProgressEvent(kind="campaign_started", time=1.0)
        line = event.to_json() + "\n"
        tail = LedgerTail(path)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(line[:10])
            handle.flush()
            assert tail.poll() == []  # incomplete: buffered, not parsed
            handle.write(line[10:])
            handle.flush()
        assert tail.poll() == [event]

    def test_tail_folds_to_same_view_as_replay(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        events = campaign_events(tasks=4, jobs=2)
        ledger = ProgressLedger(path)
        tail = LedgerTail(path)
        tailed = CampaignView()
        for event in events:
            ledger.append(event)
            for seen in tail.poll():
                tailed.fold(seen)
        ledger.close()
        assert tailed.as_dict() == CampaignView.replay(path).as_dict()


class TestStreamConfig:
    def test_flight_dir_defaults_to_ledger_dir(self, tmp_path):
        config = StreamConfig(ledger_path=tmp_path / "progress.jsonl")
        assert config.resolved_flight_dir() == tmp_path

    def test_worker_payload_is_json_safe(self, tmp_path):
        config = StreamConfig(
            ledger_path=tmp_path / "progress.jsonl",
            profile_dir=tmp_path / "profiles",
            trace_malloc=True,
        )
        payload = json.loads(json.dumps(config.worker_payload()))
        assert payload["flight_dir"] == str(tmp_path)
        assert payload["profile_dir"] == str(tmp_path / "profiles")
        assert payload["trace_malloc"] is True
        # The ledger path itself must NOT ride to workers: only the
        # parent appends to the ledger.
        assert "ledger_path" not in payload
