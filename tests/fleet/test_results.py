"""Tests for repro.fleet.results: the append-only JSONL store."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fleet.results import (
    STATUS_ERROR,
    STATUS_OK,
    ResultStore,
    ShardedResultStore,
    TaskRecord,
    detect_store_kind,
    make_store,
    salvage_line,
    shard_index,
)


def make_record(task_id: str, status: str = STATUS_OK, **metrics) -> TaskRecord:
    return TaskRecord(
        task_id=task_id,
        scenario="sender_reset",
        params={"k": 25},
        seed=7,
        status=status,
        metrics=metrics,
        wall_time=0.5,
        error="RuntimeError: boom" if status == STATUS_ERROR else None,
    )


class TestTaskRecord:
    def test_dict_round_trip(self):
        record = make_record("a", converged=True, time_to_converge=[2e-4])
        assert TaskRecord.from_dict(record.to_dict()) == record

    def test_error_round_trip(self):
        record = make_record("b", status=STATUS_ERROR)
        restored = TaskRecord.from_dict(record.to_dict())
        assert restored.error == "RuntimeError: boom"

    def test_json_is_canonical(self):
        record = make_record("a", converged=True)
        assert record.to_json() == record.to_json()
        assert "\n" not in record.to_json()


class TestResultStore:
    def test_append_then_read_back(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        records = [make_record("a"), make_record("b", status=STATUS_ERROR)]
        for record in records:
            store.append(record)
        assert list(store.records()) == records
        assert len(store) == 2

    def test_creates_parent_directories(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "r.jsonl")
        store.append(make_record("a"))
        assert store.path.exists()

    def test_missing_file_reads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "never.jsonl")
        assert list(store.records()) == []
        assert store.completed_ids() == set()

    def test_completed_ids_exclude_errors(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(make_record("ok-task"))
        store.append(make_record("bad-task", status=STATUS_ERROR))
        assert store.completed_ids() == {"ok-task"}

    def test_truncated_final_line_is_dropped(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(make_record("a"))
        store.append(make_record("b"))
        # Simulate a crash mid-append: chop the file mid-way through the
        # final line.
        text = store.path.read_text()
        store.path.write_text(text[: len(text) - 25])
        survivors = list(store.records())
        assert [r.task_id for r in survivors] == ["a"]
        assert store.corrupt_lines == 1
        # The store must still accept appends afterwards.
        store.append(make_record("b"))
        assert store.completed_ids() == {"a", "b"}

    def test_blank_lines_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(make_record("a"))
        with store.path.open("a") as handle:
            handle.write("\n\n")
        store.append(make_record("b"))
        assert [r.task_id for r in store.records()] == ["a", "b"]
        assert store.corrupt_lines == 0


class TestTornLineSalvage:
    def test_mid_file_corruption_loses_only_the_damaged_line(self, tmp_path):
        # Isolated torn writes can land mid-file with multiprocessing
        # writers; the lines after them must survive.
        store = ResultStore(tmp_path / "r.jsonl")
        for task_id in ("a", "b", "c"):
            store.append(make_record(task_id))
        lines = store.path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear the middle line
        store.path.write_text("\n".join(lines) + "\n")
        survivors = [r.task_id for r in store.records()]
        assert survivors == ["a", "c"]
        assert store.corrupt_lines == 1

    def test_complete_records_glued_to_a_fragment_are_salvaged(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(make_record("a"))
        fragment = make_record("lost").to_json()[:30]
        glued = fragment + make_record("b").to_json() + make_record("c").to_json()
        with store.path.open("a") as handle:
            handle.write(glued + "\n")
        survivors = [r.task_id for r in store.records()]
        assert survivors == ["a", "b", "c"]
        assert store.corrupt_lines == 1

    def test_salvage_line_reports_clean_single_record(self):
        records, torn = salvage_line(make_record("a").to_json())
        assert [r.task_id for r in records] == ["a"]
        assert not torn

    def test_heal_terminates_a_dangling_partial_line(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(make_record("a"))
        with store.path.open("a") as handle:
            handle.write(make_record("b").to_json()[:40])  # crash mid-append
        assert store.heal() is True
        assert store.heal() is False  # idempotent
        assert [r.task_id for r in store.records()] == ["a"]
        assert store.corrupt_lines == 1


class TestAppendOpens:
    """The store is its file's single writer, so it reads the tail once
    (first append, or heal) and then tracks it: one open per append."""

    @pytest.fixture
    def opened(self, monkeypatch):
        calls = []
        real_open = Path.open

        def counting_open(path, *args, **kwargs):
            calls.append(args[0] if args else kwargs.get("mode", "r"))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        return calls

    def test_one_open_per_append_after_the_first(self, tmp_path, opened):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(make_record("a"))
        assert opened == ["rb", "a"]  # the tail check, then the append
        for index in range(10):
            store.append(make_record(f"t{index}"))
        assert opened == ["rb"] + ["a"] * 11

    def test_heal_reads_the_tail_so_appends_do_not(self, tmp_path, opened):
        store = ResultStore(tmp_path / "r.jsonl")
        store.path.write_text(make_record("a").to_json()[:30])
        del opened[:]
        assert store.heal() is True
        store.append(make_record("b"))
        assert opened == ["rb", "a", "a"]
        assert [r.task_id for r in store.records()] == ["b"]

    def test_a_failed_write_makes_the_tail_unknown(self, tmp_path, opened):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(make_record("a"))

        class Unwritable(TaskRecord):
            def to_json(self) -> str:
                raise OSError("disk full")

        with pytest.raises(OSError):
            store.append(Unwritable(**make_record("x").to_dict()))
        # The file may now end anywhere: the next append reads the tail.
        del opened[:]
        store.append(make_record("b"))
        assert opened == ["rb", "a"]
        assert [r.task_id for r in store.records()] == ["a", "b"]


class TestShardIndex:
    def test_pure_and_in_range(self):
        for bits in (0, 1, 4, 10):
            index = shard_index("g0/sender_reset/s00001", 2003, bits)
            assert index == shard_index("g0/sender_reset/s00001", 2003, bits)
            assert 0 <= index < (1 << bits)

    def test_small_seeds_still_spread(self):
        # Experiment sweeps pin small explicit seeds; the partition must
        # stay uniform anyway because the task id is folded back in.
        bits = 3
        hit = {shard_index(f"task-{i}", 7, bits) for i in range(200)}
        assert hit == set(range(1 << bits))


class TestShardedResultStore:
    def test_round_trip_preserves_record_content(self, tmp_path):
        store = ShardedResultStore(tmp_path / "shards", bits=3)
        records = [make_record(f"t{i}") for i in range(20)]
        for record in records:
            store.append(record)
        read_back = {r.task_id: r for r in store.records()}
        assert read_back == {r.task_id: r for r in records}
        assert len(store) == 20

    def test_lines_byte_identical_to_single_file_store(self, tmp_path):
        single = ResultStore(tmp_path / "r.jsonl")
        sharded = ShardedResultStore(tmp_path / "shards", bits=4)
        for i in range(30):
            record = make_record(f"t{i}")
            single.append(record)
            sharded.append(record)
        single_lines = sorted(single.path.read_text().splitlines())
        shard_lines = sorted(
            line
            for shard in sharded.shards
            if shard.path.exists()
            for line in shard.path.read_text().splitlines()
        )
        assert shard_lines == single_lines

    def test_task_records_never_split_across_shards(self, tmp_path):
        # Error + retry records of one task land in one shard, so
        # within-shard order remains latest-wins truth.
        store = ShardedResultStore(tmp_path / "shards", bits=4)
        store.append(make_record("flaky", status=STATUS_ERROR))
        store.append(make_record("flaky"))
        homes = [
            shard for shard in store.shards
            if shard.path.exists() and len(list(shard.records())) > 0
        ]
        assert len(homes) == 1
        assert [r.status for r in homes[0].records()] == [STATUS_ERROR, STATUS_OK]

    def test_meta_pins_shard_count(self, tmp_path):
        ShardedResultStore(tmp_path / "shards", bits=5)
        reopened = ShardedResultStore(tmp_path / "shards")  # layout from meta
        assert reopened.bits == 5
        with pytest.raises(ValueError, match="bits=5"):
            ShardedResultStore(tmp_path / "shards", bits=3)

    def test_rejects_out_of_range_bits(self, tmp_path):
        with pytest.raises(ValueError, match="shard bits"):
            ShardedResultStore(tmp_path / "shards", bits=11)
        with pytest.raises(ValueError, match="shard bits"):
            ShardedResultStore(tmp_path / "other", bits=-1)

    def test_heal_touches_only_dirty_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path / "shards", bits=2)
        for i in range(16):
            store.append(make_record(f"t{i}"))
        torn = []
        for index, shard in enumerate(store.shards):
            text = shard.path.read_text()
            if index % 2 == 0:
                shard.path.write_text(text + '{"task_id": "torn-')
                torn.append(index)
        assert store.dirty_shards() == torn
        assert store.heal() == torn
        assert store.dirty_shards() == []
        # Every intact record survives; the torn fragments are skipped.
        assert {r.task_id for r in store.records()} == {
            f"t{i}" for i in range(16)
        }

    def test_completed_ids_union_over_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path / "shards", bits=3)
        store.append(make_record("good"))
        store.append(make_record("bad", status=STATUS_ERROR))
        assert store.completed_ids() == {"good"}

    def test_zero_bits_degenerates_to_one_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path / "shards", bits=0)
        for i in range(5):
            store.append(make_record(f"t{i}"))
        assert len(store.shards) == 1
        assert len(list(store.records())) == 5


class TestShardMultisetProperty:
    def test_merge_on_read_matches_single_file_for_random_kill_points(
        self, tmp_path
    ):
        # Property pin: for any prefix of appends (a "kill point"), plus
        # a torn in-flight append, the sharded store's merge-on-read
        # multiset equals the single-file store's — under every shard
        # count.
        import random

        rng = random.Random(2003)
        records = [
            make_record(f"g{i % 3}/t{i:03d}",
                        status=STATUS_ERROR if i % 7 == 0 else STATUS_OK)
            for i in range(60)
        ]
        for trial in range(5):
            kill = rng.randrange(1, len(records))
            in_flight = records[kill]
            for bits in (0, 2, 5):
                single = ResultStore(tmp_path / f"k{trial}b{bits}" / "r.jsonl")
                sharded = ShardedResultStore(
                    tmp_path / f"k{trial}b{bits}" / "shards", bits=bits
                )
                for record in records[:kill]:
                    single.append(record)
                    sharded.append(record)
                # The append in flight at the kill tears mid-line in both.
                torn_line = in_flight.to_json()[:25]
                with single.path.open("a") as handle:
                    handle.write(torn_line)
                with sharded.shard_for(
                    in_flight.task_id, in_flight.seed
                ).path.open("a") as handle:
                    handle.write(torn_line)
                single_ids = sorted(r.to_json() for r in single.records())
                sharded_ids = sorted(r.to_json() for r in sharded.records())
                assert sharded_ids == single_ids
                assert sorted(sharded.completed_ids()) == sorted(
                    single.completed_ids()
                )


class TestStoreFactory:
    def test_make_store_builds_each_kind(self, tmp_path):
        assert isinstance(make_store("jsonl", tmp_path / "a"), ResultStore)
        assert isinstance(
            make_store("sharded", tmp_path / "b", shard_bits=2),
            ShardedResultStore,
        )

    def test_make_store_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store kind"):
            make_store("sqlite", tmp_path)

    def test_detect_store_kind_finds_existing_backend(self, tmp_path):
        assert detect_store_kind(tmp_path) is None
        make_store("sharded", tmp_path, shard_bits=2)
        assert detect_store_kind(tmp_path) == "sharded"
