"""Tests for repro.obs.archive (the run warehouse)."""

import json

import pytest

from repro.obs.archive import (
    EXCLUDED_SIGNAL_PARTS,
    KIND_BENCH,
    KIND_FLEET,
    KIND_OBS,
    RUN_SCHEMA,
    SAMPLE_CAP,
    RunArchive,
    RunSnapshot,
    downsample,
    signal_is_excluded,
    snapshot_from_bench,
    snapshot_from_fleet_run,
    snapshot_from_obs_run,
    snapshot_target,
)
from repro.perf import RATE_SCHEMA


def make_snapshot(name="run", counter=1, kind=KIND_OBS):
    snapshot = RunSnapshot(kind=kind, name=name)
    snapshot.signals["counters"]["events"] = counter
    snapshot.signals["gauges"]["level"] = 0.5
    return snapshot


def observed_run(tmp_path, seed=2003, **param_overrides):
    """Run a tiny observed gateway_crash and export it to a run dir."""
    from repro.obs.export import export_run
    from repro.obs.hub import MetricsHub, use_hub
    from repro.workloads.scenarios import run_gateway_crash_scenario

    params = {"n_sas": 2, "crash_after_sends": 20,
              "messages_after_reset": 20}
    params.update(param_overrides)
    hub = MetricsHub()
    with use_hub(hub):
        metrics = run_gateway_crash_scenario(seed=seed, **params)
    return export_run(
        tmp_path / "run", hub, scenario="gateway_crash", params=params,
        seed=seed, manifest_extra={"metrics": metrics, "wall_time": 0.0},
    )


class TestDownsample:
    def test_short_series_verbatim(self):
        assert downsample([1.0, 2.0, 3.0]) == [1.0, 2.0, 3.0]

    def test_long_series_capped_and_ends_preserved(self):
        values = [float(i) for i in range(5000)]
        picked = downsample(values)
        assert len(picked) == SAMPLE_CAP
        assert picked[0] == 0.0
        assert picked[-1] == 4999.0
        assert picked == sorted(picked)  # order preserved

    def test_deterministic(self):
        values = [float(i) for i in range(1234)]
        assert downsample(values) == downsample(values)


class TestExclusions:
    @pytest.mark.parametrize("part", EXCLUDED_SIGNAL_PARTS)
    def test_each_part_excludes(self, part):
        assert signal_is_excluded(f"worker/{part}_bytes")

    def test_protocol_names_kept(self):
        for name in ("replay_discards", "recovery_latency", "converged"):
            assert not signal_is_excluded(name)


class TestRunSnapshot:
    def test_hash_ignores_meta(self):
        a = make_snapshot()
        b = make_snapshot()
        b.meta["created"] = 999.0
        b.meta["git_sha"] = "deadbeef"
        b.meta["machine_score"] = 99.0
        assert a.run_id == b.run_id

    def test_hash_tracks_signals(self):
        a = make_snapshot(counter=1)
        b = make_snapshot(counter=2)
        assert a.run_id != b.run_id

    def test_hash_tracks_kind_and_name(self):
        assert make_snapshot(name="x").run_id != make_snapshot(name="y").run_id
        assert (make_snapshot(kind=KIND_OBS).run_id
                != make_snapshot(kind=KIND_FLEET).run_id)

    def test_dict_round_trip(self):
        snapshot = make_snapshot()
        snapshot.meta["git_sha"] = "abc"
        data = json.loads(json.dumps(snapshot.as_dict()))
        loaded = RunSnapshot.from_dict(data)
        assert loaded.run_id == snapshot.run_id
        assert loaded.signals == snapshot.signals
        assert loaded.meta["git_sha"] == "abc"

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="not a"):
            RunSnapshot.from_dict({"schema": "something/else@9"})

    def test_from_dict_refuses_run_v1_document(self):
        # A run@1 snapshot carried a separate ``sketches`` table and
        # one-bucket-per-octave histograms: refused by schema, before
        # its dropped table could surface as a hash mismatch.
        signals = {"counters": {"events": 1}, "gauges": {},
                   "histograms": {}, "samples": {},
                   "sketches": {"time_to_converge": {"count": 0}}}
        document = {
            "schema": "repro.obs/run@1", "kind": KIND_OBS, "name": "run",
            "run_id": RunSnapshot.content_hash(KIND_OBS, "run", signals),
            "signals": signals, "meta": {}, "sources": [],
        }
        with pytest.raises(ValueError, match="schema='repro.obs/run@1'"):
            RunSnapshot.from_dict(document)

    def test_from_dict_rejects_edited_content(self):
        data = make_snapshot().as_dict()
        data["signals"]["counters"]["events"] = 42  # tamper after hashing
        with pytest.raises(ValueError, match="content hash mismatch"):
            RunSnapshot.from_dict(data)


class TestObsExtractor:
    def test_snapshot_shape(self, tmp_path):
        run_dir = observed_run(tmp_path)
        snapshot = snapshot_from_obs_run(run_dir)
        assert snapshot.kind == KIND_OBS
        assert snapshot.name == "gateway_crash"
        assert snapshot.signals["counters"]  # resets, discards, ...
        assert "recovery_latency" in snapshot.signals["histograms"]
        assert "recovery_latency" in snapshot.signals["samples"]
        assert "metric/converged" in snapshot.signals["counters"]
        assert snapshot.meta["seed"] == 2003

    def test_no_machine_dependent_signals(self, tmp_path):
        snapshot = snapshot_from_obs_run(observed_run(tmp_path))
        for table in snapshot.signals.values():
            for name in table:
                assert not signal_is_excluded(name), name

    def test_deterministic_across_reruns(self, tmp_path):
        a = snapshot_from_obs_run(observed_run(tmp_path / "a"))
        b = snapshot_from_obs_run(observed_run(tmp_path / "b"))
        assert a.run_id == b.run_id

    def test_different_workload_different_hash(self, tmp_path):
        a = snapshot_from_obs_run(observed_run(tmp_path / "a"))
        b = snapshot_from_obs_run(
            observed_run(tmp_path / "b", crash_after_sends=30)
        )
        assert a.run_id != b.run_id


def fleet_run(tmp_path, sessions=4):
    from repro.fleet import CampaignSpec, run_campaign

    spec = CampaignSpec.from_dict({
        "name": "arch-fleet",
        "base_seed": 2003,
        "grids": [{
            "scenario": "sender_reset",
            "sessions": sessions,
            "params": {"k": 25, "messages_after_reset": 40,
                       "reset_after_sends": [40, 50]},
        }],
    })
    out = tmp_path / "fleet"
    run_campaign(spec, store=out / "results.jsonl")
    # Write the aggregate the CLI writes, so the extractor sees it.
    from repro.fleet.aggregate import aggregate_store
    from repro.fleet.results import ResultStore

    store = ResultStore(out / "results.jsonl")
    aggregate = aggregate_store(store)
    payload = aggregate.summary().as_dict()
    if aggregate.sketch.count:
        payload["sketch"] = aggregate.sketch.as_dict()
    (out / "aggregate.json").write_text(json.dumps(payload))
    return out


class TestFleetExtractor:
    def test_snapshot_shape(self, tmp_path):
        out = fleet_run(tmp_path)
        snapshot = snapshot_from_fleet_run(out)
        assert snapshot.kind == KIND_FLEET
        assert snapshot.signals["counters"]["tasks"] == 4
        assert snapshot.signals["counters"]["errors"] == 0

    def test_convergence_points_and_sketch(self, tmp_path):
        from repro.obs.hub import QuantileSketch

        sketch = QuantileSketch()
        for value in (0.001, 0.002, 0.004):
            sketch.observe(value)
        out = tmp_path / "fleet"
        out.mkdir()
        (out / "aggregate.json").write_text(json.dumps({
            "tasks": 3, "ok": 3, "errors": 0,
            "convergence_time": {"p50": 0.002, "p99": 0.004, "max": 0.004},
            "sketch": sketch.as_dict(),
        }))
        snapshot = snapshot_from_fleet_run(out)
        assert snapshot.signals["gauges"]["time_to_converge/p99"] == 0.004
        assert "time_to_converge" in snapshot.signals["histograms"]
        loaded = QuantileSketch.from_dict(
            snapshot.signals["histograms"]["time_to_converge"]
        )
        assert loaded.count == 3

    def test_missing_dir_raises(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        with pytest.raises(FileNotFoundError, match="neither"):
            snapshot_from_fleet_run(empty)


def bench_json(tmp_path, normalized=1000.0, tagged=True):
    extra = {
        "schema": RATE_SCHEMA, "name": "bench_x", "metric": "events/s",
        "count": 500, "seconds": 0.5, "rate": 1000.0,
        "machine_score": 1.0, "normalized_rate": normalized,
        "git_sha": "cafe" * 10,
    } if tagged else {"note": "untagged"}
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "BENCH_X.json"
    path.write_text(json.dumps({
        "benchmarks": [{"name": "bench_x", "stats": {"min": 0.5},
                        "extra_info": extra}],
    }))
    return path


class TestBenchExtractor:
    def test_snapshot_shape(self, tmp_path):
        snapshot = snapshot_from_bench(bench_json(tmp_path))
        assert snapshot.kind == KIND_BENCH
        assert snapshot.signals["gauges"]["bench_x/normalized_rate"] == 1000.0
        assert snapshot.signals["counters"]["bench_x/count"] == 500
        assert snapshot.meta["git_sha"] == "cafe" * 10
        assert snapshot.meta["machine_score"] == 1.0

    def test_untagged_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="tagged"):
            snapshot_from_bench(bench_json(tmp_path, tagged=False))

    def test_hash_machine_independent(self, tmp_path):
        a = snapshot_from_bench(bench_json(tmp_path / "a"))
        b_path = bench_json(tmp_path / "b")
        data = json.loads(b_path.read_text())
        data["benchmarks"][0]["extra_info"]["machine_score"] = 7.7
        data["benchmarks"][0]["extra_info"]["git_sha"] = "beef" * 10
        b_path.write_text(json.dumps(data))
        b = snapshot_from_bench(b_path)
        assert a.run_id == b.run_id  # score and sha live in meta only


class TestSnapshotTarget:
    def test_sniffs_obs_dir(self, tmp_path):
        assert snapshot_target(observed_run(tmp_path)).kind == KIND_OBS

    def test_sniffs_fleet_dir(self, tmp_path):
        assert snapshot_target(fleet_run(tmp_path)).kind == KIND_FLEET

    def test_sniffs_bench_file(self, tmp_path):
        assert snapshot_target(bench_json(tmp_path)).kind == KIND_BENCH

    def test_loads_written_snapshot(self, tmp_path):
        snapshot = make_snapshot()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(snapshot.as_dict()))
        assert snapshot_target(path).run_id == snapshot.run_id

    def test_missing_target_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            snapshot_target(tmp_path / "gone")

    def test_unknown_json_raises(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a"):
            snapshot_target(path)


class TestRunArchive:
    def test_add_and_load(self, tmp_path):
        archive = RunArchive(tmp_path / "wh")
        snapshot = make_snapshot()
        assert archive.add(snapshot) is True
        loaded = archive.load(snapshot.run_id)
        assert loaded is not None
        assert loaded.run_id == snapshot.run_id
        assert archive.index()[0]["schema"] == RUN_SCHEMA

    def test_readd_dedups(self, tmp_path):
        archive = RunArchive(tmp_path / "wh")
        snapshot = make_snapshot()
        assert archive.add(snapshot) is True
        assert archive.add(snapshot) is False
        assert len(archive.index()) == 1

    def test_history_order_and_filters(self, tmp_path):
        archive = RunArchive(tmp_path / "wh")
        for counter in (1, 2, 3):
            archive.add(make_snapshot(counter=counter))
        archive.add(make_snapshot(name="other", kind=KIND_FLEET))
        runs = archive.history(kind=KIND_OBS, name="run")
        assert len(runs) == 3
        assert [r.signals["counters"]["events"] for r in runs] == [1, 2, 3]
        assert len(archive.history(last=2)) == 2
        assert archive.history(kind=KIND_FLEET)[0].name == "other"

    def test_resolve_latest_prefix_and_path(self, tmp_path):
        archive = RunArchive(tmp_path / "wh")
        first = make_snapshot(counter=1)
        second = make_snapshot(counter=2)
        archive.add(first)
        archive.add(second)
        assert archive.resolve("latest").run_id == second.run_id
        assert archive.resolve(first.run_id[:10]).run_id == first.run_id
        run_dir = observed_run(tmp_path)
        assert archive.resolve(str(run_dir)).kind == KIND_OBS

    def test_resolve_errors(self, tmp_path):
        archive = RunArchive(tmp_path / "wh")
        with pytest.raises(ValueError, match="empty"):
            archive.resolve("latest")
        archive.add(make_snapshot(counter=1))
        with pytest.raises(ValueError, match="matches nothing"):
            archive.resolve("zzzz")
