"""Tests for repro.fleet.runner: execution, determinism, resume.

The determinism tests pin the satellite guarantee: the same
:class:`CampaignSpec` run twice — and serial vs ``jobs=2`` — writes
byte-identical result stores modulo the ``wall_time`` field.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.fleet.results import STATUS_ERROR, STATUS_OK, ResultStore
from repro.fleet.runner import FleetRunner, execute_task, run_campaign
from repro.fleet.spec import CampaignSpec, ScenarioGrid, example_spec


def canonical_lines(path: Path) -> list[str]:
    """Store lines with the wall-clock-dependent field zeroed."""
    return [
        re.sub(r'"wall_time":[0-9eE.+-]+', '"wall_time":0', line)
        for line in path.read_text().splitlines()
    ]


def run_spec(spec: CampaignSpec, tmp_path: Path, tag: str, jobs: int = 1):
    store = ResultStore(tmp_path / tag / "results.jsonl")
    outcome = FleetRunner(spec, store, jobs=jobs).run()
    return store, outcome


class TestSmokeCampaign:
    def test_twenty_session_mixed_campaign(self, tmp_path):
        spec = example_spec(sessions=20)
        store, outcome = run_spec(spec, tmp_path, "smoke")
        assert outcome.total == 20
        assert outcome.skipped == 0
        assert len(outcome.executed) == 20
        records = list(store.records())
        assert len(records) == 20
        assert {r.status for r in records} == {STATUS_OK}
        assert {r.scenario for r in records} == {
            "sender_reset", "receiver_reset", "loss_reset", "gateway_crash"
        }
        assert all(r.metrics["converged"] for r in records)
        assert all(r.metrics["replays_accepted"] == 0 for r in records)

    def test_progress_callback_streams_in_task_order(self, tmp_path):
        spec = example_spec(sessions=9)
        seen: list[tuple[int, str]] = []
        store = ResultStore(tmp_path / "results.jsonl")
        FleetRunner(
            spec, store, progress=lambda done, total, rec: seen.append((done, rec.task_id))
        ).run()
        assert [done for done, _ in seen] == list(range(1, 10))
        assert [tid for _, tid in seen] == [t.task_id for t in spec.tasks()]

    def test_execute_task_alone_matches_runner_record(self, tmp_path):
        spec = example_spec(sessions=6)
        task = spec.tasks()[0]
        direct = execute_task(task, spec.max_events)
        store, _ = run_spec(spec, tmp_path, "one")
        via_runner = next(iter(store.records()))
        assert direct.metrics == via_runner.metrics
        assert direct.seed == via_runner.seed


class TestDeterminism:
    def test_same_spec_twice_is_byte_identical_modulo_wall_time(self, tmp_path):
        spec = example_spec(sessions=12)
        store_a, _ = run_spec(spec, tmp_path, "a")
        store_b, _ = run_spec(spec, tmp_path, "b")
        assert canonical_lines(store_a.path) == canonical_lines(store_b.path)

    def test_serial_vs_pool_is_byte_identical_modulo_wall_time(self, tmp_path):
        spec = example_spec(sessions=12)
        store_serial, _ = run_spec(spec, tmp_path, "serial", jobs=1)
        store_pool, _ = run_spec(spec, tmp_path, "pool", jobs=2)
        assert canonical_lines(store_serial.path) == canonical_lines(store_pool.path)

    def test_pooled_records_share_their_strings(self, tmp_path):
        spec = example_spec(sessions=8)
        _, serial = run_spec(spec, tmp_path, "serial", jobs=1)
        _, pooled = run_spec(spec, tmp_path, "pool", jobs=2)
        assert [r.metrics for r in pooled.executed] == [
            r.metrics for r in serial.executed
        ]
        first, *rest = pooled.executed
        names = {name: name for name in first.metrics}
        for record in rest:
            assert record.status is first.status
            # Unpickled alone, each record would own a copy of every name.
            assert all(names.get(name, name) is name for name in record.metrics)
        crashes = [r for r in pooled.executed if r.scenario == "gateway_crash"]
        assert len(crashes) > 1
        names = {name: name for name in crashes[0].metrics["sa_reports"][0]}
        report = crashes[-1].metrics["sa_reports"][-1]
        assert report and all(names[name] is name for name in report)


class TestResume:
    def test_completed_tasks_are_not_recomputed(self, tmp_path):
        spec = example_spec(sessions=12)
        store, first = run_spec(spec, tmp_path, "resume")
        assert len(first.executed) == 12
        second = FleetRunner(spec, store).run()
        assert second.skipped == 12
        assert second.executed == []
        assert len(list(store.records())) == 12

    def test_interrupted_store_resumes_remaining_tasks(self, tmp_path):
        spec = example_spec(sessions=12)
        store, _ = run_spec(spec, tmp_path, "full")
        # Simulate an interrupt: keep only the first 5 completed lines.
        lines = store.path.read_text().splitlines()[:5]
        partial = ResultStore(tmp_path / "partial" / "results.jsonl")
        partial.path.write_text("\n".join(lines) + "\n")
        outcome = FleetRunner(spec, partial).run()
        assert outcome.skipped == 5
        assert len(outcome.executed) == 7
        # The healed store is indistinguishable from an uninterrupted run.
        assert canonical_lines(partial.path) == canonical_lines(store.path)

    def test_resume_after_mid_line_truncation(self, tmp_path):
        spec = example_spec(sessions=6)
        store, _ = run_spec(spec, tmp_path, "trunc")
        text = store.path.read_text()
        store.path.write_text(text[: len(text) - 20])  # chop the last line
        outcome = FleetRunner(spec, store).run()
        assert outcome.skipped == 5
        assert len(outcome.executed) == 1
        assert len(store.completed_ids()) == 6

    def test_errored_tasks_retry_on_resume(self, tmp_path):
        # loss_rate=2.0 passes spec validation (a real parameter) but
        # fails at runtime (not a probability) -> an error record.
        bad = CampaignSpec(
            name="bad",
            grids=(ScenarioGrid(
                scenario="loss_reset",
                params={"k": 25, "loss_rate": 2.0},
            ),),
        )
        store = ResultStore(tmp_path / "results.jsonl")
        first = FleetRunner(bad, store).run()
        assert [r.status for r in first.executed] == [STATUS_ERROR]
        assert "must be in [0, 1]" in first.executed[0].error
        second = FleetRunner(bad, store).run()
        assert second.skipped == 0  # error records do not count as done
        assert len(second.executed) == 1


class TestGuards:
    def test_rejects_zero_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            FleetRunner(example_spec(6), ResultStore(tmp_path / "r.jsonl"), jobs=0)

    def test_event_budget_overrun_is_an_error_record(self, tmp_path):
        spec = example_spec(sessions=3)
        store = ResultStore(tmp_path / "results.jsonl")
        outcome = FleetRunner(spec, store, max_events=10).run()
        assert all(r.status == STATUS_ERROR for r in outcome.executed)
        assert all("hard_event_limit" in r.error for r in outcome.executed)

    def test_run_campaign_accepts_path_store(self, tmp_path):
        outcome = run_campaign(example_spec(sessions=6), tmp_path / "r.jsonl")
        assert len(outcome.executed) == 6


@pytest.mark.slow
class TestFleetScale:
    def test_five_hundred_session_campaign_parallel(self, tmp_path):
        spec = example_spec(sessions=510, base_seed=77)
        store, outcome = run_spec(spec, tmp_path, "scale", jobs=2)
        assert len(outcome.executed) == 510
        records = list(store.records())
        assert len(records) == 510
        assert all(r.status == STATUS_OK for r in records)
        assert all(r.metrics["replays_accepted"] == 0 for r in records)


class TestStoreBackends:
    def shard_lines(self, store) -> list[str]:
        return sorted(
            line
            for shard in store.shards
            if shard.path.exists()
            for line in canonical_lines(shard.path)
        )

    def test_sharded_run_matches_jsonl_modulo_placement(self, tmp_path):
        from repro.fleet.results import ShardedResultStore

        spec = example_spec(sessions=12)
        jsonl_store, _ = run_spec(spec, tmp_path, "jsonl")
        sharded = ShardedResultStore(tmp_path / "shards", bits=3)
        FleetRunner(spec, sharded).run()
        assert self.shard_lines(sharded) == sorted(
            canonical_lines(jsonl_store.path)
        )

    def test_sharded_serial_vs_pool_byte_identical(self, tmp_path):
        from repro.fleet.results import ShardedResultStore

        spec = example_spec(sessions=12)
        serial = ShardedResultStore(tmp_path / "serial", bits=3)
        FleetRunner(spec, serial, jobs=1).run()
        pool = ShardedResultStore(tmp_path / "pool", bits=3)
        FleetRunner(spec, pool, jobs=2).run()
        for shard_a, shard_b in zip(serial.shards, pool.shards):
            lines_a = canonical_lines(shard_a.path) if shard_a.path.exists() else []
            lines_b = canonical_lines(shard_b.path) if shard_b.path.exists() else []
            assert lines_a == lines_b

    def test_sharded_store_resumes(self, tmp_path):
        from repro.fleet.results import ShardedResultStore

        spec = example_spec(sessions=12)
        store = ShardedResultStore(tmp_path / "shards", bits=2)
        first = FleetRunner(spec, store).run()
        assert len(first.executed) == 12
        second = FleetRunner(spec, store).run()
        assert second.skipped == 12
        assert second.executed == []

    def test_sharded_resume_after_kill_heals_dirty_shard(self, tmp_path):
        from repro.fleet.results import ShardedResultStore

        spec = example_spec(sessions=12)
        full = ShardedResultStore(tmp_path / "full", bits=2)
        FleetRunner(spec, full).run()
        # Rebuild a killed-mid-run store: 5 complete records, plus the
        # in-flight sixth torn mid-line in its shard.
        records = list(full.records())
        partial = ShardedResultStore(tmp_path / "partial", bits=2)
        for record in records[:5]:
            partial.append(record)
        victim = records[5]
        with partial.shard_for(victim.task_id, victim.seed).path.open("a") as fh:
            fh.write(victim.to_json()[:30])
        assert partial.dirty_shards() != []
        outcome = FleetRunner(spec, partial).run()
        assert outcome.skipped == 5
        assert len(outcome.executed) == 7
        assert partial.dirty_shards() == []
        assert len(partial.completed_ids()) == 12
        # The torn fragment stays in the file (skip-and-log, never
        # rewrite), but the record multiset matches the clean run.
        def record_lines(store):
            return sorted(
                re.sub(r'"wall_time":[0-9eE.+-]+', '"wall_time":0',
                       record.to_json())
                for record in store.records()
            )
        assert record_lines(partial) == record_lines(full)

    def test_sampled_campaign_runs_and_resumes(self, tmp_path):
        from repro.fleet.results import ShardedResultStore
        from repro.fleet.spec import SampledCampaign

        plan = SampledCampaign(example_spec(sessions=60), 15)
        store = ShardedResultStore(tmp_path / "shards", bits=2)
        first = FleetRunner(plan, store).run()
        assert 5 <= len(first.executed) <= 30  # ~15 expected
        second = FleetRunner(plan, store).run()
        assert second.skipped == len(first.executed)
        assert second.executed == []
