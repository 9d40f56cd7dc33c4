"""Campaign-scale end-to-end: kill a sampled megafleet run, resume it.

The CI ``fleet-scale`` job runs this under ``--runslow``: expand the
1M-task campaign spec, run a deterministic ~2k-session sample on the
sharded store with two workers, SIGKILL the process mid-run, resume, and
assert the recovery invariants the whole fleet stack promises — zero
lost tasks, zero duplicated tasks, and sketch percentiles agreeing with
exact ones within the documented error bound.  It also pins the sample
itself: the exact tasks ``--sample 2000`` draws from the megafleet.  The
pin is not ``slow`` (a few seconds: 1M membership keys, 3.75M parameter
draws over all four grids), so tier-1 runs it on every Python in CI.

Set ``MEGAFLEET_OUT`` to keep the campaign directory (CI uploads the
``aggregate.json`` artifact from there); by default everything lands in
the test's tmp dir.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.fleet.aggregate import summarize_store
from repro.fleet.results import STATUS_OK, ShardedResultStore
from repro.fleet.spec import SampledCampaign, megafleet_spec
from repro.obs.hub import SKETCH_RELATIVE_ERROR

SAMPLE = 2000
JOBS = 2
SHARD_BITS = 4


def fleet_command(spec_path: Path, out_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro", "fleet", str(spec_path),
        "--sample", str(SAMPLE), "--store", "sharded",
        "--shard-bits", str(SHARD_BITS), "--jobs", str(JOBS),
        "--out", str(out_dir),
    ]


def repro_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    return env


def test_sample_is_pinned():
    # The sample's ids, params and seeds are the resume keys of every
    # stored megafleet sample: hash the exact tasks, in order.
    hasher = hashlib.sha256()
    count = 0
    for task in SampledCampaign(megafleet_spec(), SAMPLE).tasks():
        hasher.update((json.dumps(task.to_dict(), sort_keys=True) + "\n").encode())
        count += 1
    assert count == 1954
    assert hasher.hexdigest() == (
        "3611749d07b252f7c50a41e436690efc1ada3fd675fe7c46d70d451ce32180dc"
    )


@pytest.mark.slow
class TestMegafleetKillResume:
    def test_kill_mid_run_then_resume_loses_and_duplicates_nothing(
        self, tmp_path
    ):
        out_dir = Path(os.environ.get("MEGAFLEET_OUT", tmp_path / "megafleet"))
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = megafleet_spec()
        spec_path = spec.dump(out_dir / "megafleet_spec.json")
        command = fleet_command(spec_path, out_dir)
        env = repro_env()

        # Phase 1: start the sampled campaign and SIGKILL it once a
        # meaningful amount of work is durably stored.
        process = subprocess.Popen(
            command, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        store_dir = out_dir / "results.shards"
        deadline = time.monotonic() + 600
        killed = False
        try:
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break  # finished before we could kill it (too fast)
                if store_dir.exists():
                    done = len(ShardedResultStore(store_dir).completed_ids())
                    if done >= 100:
                        os.kill(process.pid, signal.SIGKILL)
                        process.wait(timeout=60)
                        killed = True
                        break
                time.sleep(0.25)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=60)
        assert killed or process.returncode == 0, (
            "first run neither made progress nor finished"
        )

        store = ShardedResultStore(store_dir)
        done_after_kill = store.completed_ids()
        if killed:
            assert done_after_kill, "kill point left no durable records"

        # Phase 2: resume with the identical command.
        result = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=3600,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert (out_dir / "aggregate.json").exists()

        # Zero lost tasks: exactly the deterministic sample completed.
        expected_ids = {
            task.task_id for task in SampledCampaign(spec, SAMPLE).tasks()
        }
        store = ShardedResultStore(store_dir)
        assert store.completed_ids() == expected_ids

        # Zero duplicated tasks: resume never re-runs completed work, so
        # each task has exactly one ok record (a kill can add an error
        # record before the retry, never a second ok).
        ok_counts = Counter(
            record.task_id
            for record in store.records()
            if record.status == STATUS_OK
        )
        duplicated = {tid: n for tid, n in ok_counts.items() if n > 1}
        assert duplicated == {}
        # Everything the first run durably finished stayed finished.
        assert done_after_kill <= expected_ids

        # Sketch-vs-exact percentile agreement on the full sample:
        # forcing the sketch path (exact_cap=0 spills immediately) must
        # stay conservative and within the documented relative error.
        exact = summarize_store(store)
        sketched = summarize_store(store, exact_cap=0)
        assert exact.percentile_mode == "exact"
        assert sketched.percentile_mode == "sketch"
        assert sketched.convergence_time["max"] == exact.convergence_time["max"]
        for key in ("p50", "p90", "p99"):
            approx = sketched.convergence_time[key]
            true = exact.convergence_time[key]
            assert approx >= true * (1.0 - 1e-12)
            assert approx <= true * (1.0 + SKETCH_RELATIVE_ERROR) + 1e-12
