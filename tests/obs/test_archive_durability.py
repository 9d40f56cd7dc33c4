"""Backend parity: the same campaign through the jsonl and sharded
result stores snapshots to identical content that self-diffs all-GREEN.
"""

import json

import pytest

from repro.fleet.results import STORE_KINDS
from repro.obs.archive import snapshot_from_fleet_run
from repro.obs.compare import diff_runs
from repro.obs.health import HealthState


def run_backend_campaign(tmp_path, backend):
    from repro.fleet import CampaignSpec, run_campaign
    from repro.fleet.aggregate import aggregate_store
    from repro.fleet.results import make_store

    spec = CampaignSpec.from_dict({
        "name": "backend-parity",
        "base_seed": 2003,
        "grids": [{
            "scenario": "sender_reset",
            "sessions": 6,
            "params": {"k": 25, "messages_after_reset": 40,
                       "reset_after_sends": [40, 50, 60]},
        }],
    })
    # One directory name on both backends, so the snapshots share a name.
    out = tmp_path / backend / "campaign"
    out.mkdir(parents=True)
    store = make_store(backend, out)
    run_campaign(spec, store=store)
    aggregate = aggregate_store(store)
    payload = aggregate.summary().as_dict()
    if aggregate.sketch.count:
        payload["sketch"] = aggregate.sketch.as_dict()
    (out / "aggregate.json").write_text(json.dumps(payload))
    return out


class TestBackendParity:
    @pytest.mark.parametrize("backend", STORE_KINDS)
    def test_self_diff_green_on_every_backend(self, tmp_path, backend):
        out = run_backend_campaign(tmp_path, backend)
        snapshot = snapshot_from_fleet_run(out)
        diff = diff_runs(snapshot, snapshot)
        assert diff.verdict is HealthState.GREEN
        assert diff.regressions == []

    def test_backends_archive_to_identical_content(self, tmp_path):
        snapshots = [
            snapshot_from_fleet_run(run_backend_campaign(tmp_path, backend))
            for backend in STORE_KINDS
        ]
        ids = {snapshot.run_id for snapshot in snapshots}
        assert len(ids) == 1, "backends disagreed on campaign content"
        # And cross-backend diffs are all-GREEN by construction.
        diff = diff_runs(snapshots[0], snapshots[1])
        assert diff.verdict is HealthState.GREEN
