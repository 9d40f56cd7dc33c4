"""Tests for repro.fleet.spec: round-trips and deterministic expansion."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fleet.spec as spec_module
from repro.fleet.runner import FleetRunner
from repro.fleet.results import MemoryResultStore
from repro.fleet.spec import (
    DEFAULT_MAX_EVENTS,
    CampaignSpec,
    FleetTask,
    SampledCampaign,
    ScenarioGrid,
    example_spec,
    megafleet_spec,
)
from repro.util.rng import derive_seed


def tasks_digest(tasks) -> str:
    """SHA-256 over each task's sorted-key JSON line, in order."""
    hasher = hashlib.sha256()
    for task in tasks:
        hasher.update((json.dumps(task.to_dict(), sort_keys=True) + "\n").encode())
    return hasher.hexdigest()


def grid_mode_spec() -> CampaignSpec:
    """200 grid-mode tasks: 100 combinations, each repeated twice."""
    return CampaignSpec(
        name="grid-demo",
        base_seed=2003,
        grids=(ScenarioGrid(
            scenario="sender_reset",
            params={
                "k": 25,
                "reset_after_sends": list(range(40, 65)),
                "messages_after_reset": [40, 60],
                "w": [32, 64],
            },
            repeats=2,
        ),),
    )


def small_spec() -> CampaignSpec:
    return CampaignSpec(
        name="unit",
        base_seed=99,
        grids=(
            ScenarioGrid(
                scenario="sender_reset",
                params={"k": 25, "reset_after_sends": [40, 50], "w": [32, 64]},
            ),
            ScenarioGrid(
                scenario="loss_reset",
                params={"k": 25, "loss_rate": [0.0, 0.05]},
                sessions=5,
            ),
        ),
    )


class TestSerialisation:
    def test_dict_round_trip(self):
        spec = small_spec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = small_spec()
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = spec.dump(tmp_path / "deep" / "campaign.json")
        assert CampaignSpec.load(path) == spec

    def test_defaults_survive_round_trip(self):
        spec = CampaignSpec.from_dict(
            {"name": "d", "grids": [{"scenario": "sender_reset"}]}
        )
        assert spec.base_seed == 0
        assert spec.max_events == DEFAULT_MAX_EVENTS
        assert spec.grids[0].repeats == 1
        assert spec.grids[0].sessions is None

    def test_grids_coerced_from_dicts(self):
        spec = CampaignSpec(
            name="c", grids=({"scenario": "sender_reset", "params": {"k": 25}},)
        )
        assert isinstance(spec.grids[0], ScenarioGrid)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name must be non-empty"):
            CampaignSpec(name="", grids=(ScenarioGrid(scenario="sender_reset"),))

    def test_no_grids_rejected(self):
        with pytest.raises(ValueError, match="at least one scenario grid"):
            CampaignSpec(name="x", grids=())

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty choice list"):
            ScenarioGrid(scenario="sender_reset", params={"k": []})

    @pytest.mark.parametrize("sessions, error", [
        (0, ValueError), (-3, ValueError), (2.5, TypeError), (True, TypeError),
    ])
    def test_bad_sessions_rejected(self, sessions, error):
        # Refused at load: a float would die only at expansion, and
        # ``True`` would expand one session.
        with pytest.raises(error, match="sessions"):
            ScenarioGrid(scenario="sender_reset", sessions=sessions)
        with pytest.raises(error, match="sessions"):
            ScenarioGrid.from_dict({"scenario": "sender_reset", "sessions": sessions})

    @pytest.mark.parametrize("repeats, error", [
        (0, ValueError), (1.5, TypeError), (True, TypeError),
    ])
    def test_bad_repeats_rejected(self, repeats, error):
        with pytest.raises(error, match="repeats"):
            ScenarioGrid(scenario="sender_reset", repeats=repeats)

    @pytest.mark.parametrize("max_events, error", [
        (0, ValueError), (2.5, TypeError), (True, TypeError),
    ])
    def test_bad_max_events_rejected(self, max_events, error):
        with pytest.raises(error, match="max_events"):
            CampaignSpec.from_dict({
                "name": "x", "grids": [{"scenario": "sender_reset"}],
                "max_events": max_events,
            })

    @pytest.mark.parametrize("base_seed", [2.5, "2", True])
    def test_non_int_base_seed_rejected(self, base_seed, tmp_path):
        # ``derive_seed`` would read each as 2 (``True`` as 1), so the
        # spec would record one seed and run another.
        data = {"name": "x", "grids": [{"scenario": "sender_reset"}],
                "base_seed": base_seed}
        with pytest.raises(TypeError, match="base_seed must be int"):
            CampaignSpec(name="x", grids=(ScenarioGrid(scenario="sender_reset"),),
                         base_seed=base_seed)
        with pytest.raises(TypeError, match="base_seed must be int"):
            CampaignSpec.from_dict(data)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TypeError, match="base_seed must be int"):
            CampaignSpec.load(path)

    def test_negative_base_seed_accepted(self):
        spec = CampaignSpec(name="x", grids=(ScenarioGrid(scenario="sender_reset"),),
                            base_seed=-7)
        assert spec.tasks()[0].seed == derive_seed(-7, 0, "sender_reset", 0, 0)

    def test_unknown_scenario_caught_at_expansion(self):
        spec = CampaignSpec(name="x", grids=(ScenarioGrid(scenario="nope"),))
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            spec.tasks()

    def test_misspelled_parameter_fails_fast_with_valid_names(self):
        spec = CampaignSpec(
            name="x",
            grids=(ScenarioGrid(
                scenario="sender_reset",
                params={"k": 25, "reset_after_send": [40, 50]},  # missing 's'
            ),),
        )
        with pytest.raises(ValueError, match="reset_after_send"):
            spec.tasks()
        with pytest.raises(ValueError, match="valid parameters:.*reset_after_sends"):
            spec.tasks()

    def test_seed_cannot_be_a_parameter_axis(self):
        spec = CampaignSpec(
            name="x",
            grids=(ScenarioGrid(scenario="sender_reset", params={"seed": [1, 2]}),),
        )
        with pytest.raises(ValueError, match="derived per task"):
            spec.tasks()

    def test_repeats_rejected_in_population_mode(self):
        with pytest.raises(ValueError, match="repeats applies to grid mode only"):
            ScenarioGrid(scenario="sender_reset", sessions=10, repeats=3)


class TestExpansion:
    def test_grid_mode_is_cartesian_product(self):
        spec = small_spec()
        tasks = spec.tasks()
        grid_tasks = [t for t in tasks if t.scenario == "sender_reset"]
        assert len(grid_tasks) == 2 * 2  # reset_after_sends x w (k is scalar)
        combos = {(t.params["reset_after_sends"], t.params["w"]) for t in grid_tasks}
        assert combos == {(40, 32), (40, 64), (50, 32), (50, 64)}

    def test_population_mode_draws_requested_sessions(self):
        tasks = small_spec().tasks()
        sampled = [t for t in tasks if t.scenario == "loss_reset"]
        assert len(sampled) == 5
        assert all(t.params["loss_rate"] in (0.0, 0.05) for t in sampled)

    def test_session_count_matches_expansion(self):
        spec = small_spec()
        assert spec.session_count() == len(spec.tasks())
        demo = example_spec(sessions=60)
        assert demo.session_count() == len(demo.tasks()) == 60

    def test_example_spec_handles_tiny_session_counts(self):
        for sessions in (1, 2, 3, 4):
            assert example_spec(sessions=sessions).session_count() == sessions
        with pytest.raises(ValueError):
            example_spec(sessions=0)

    def test_repeats_replicate_combos_with_distinct_seeds(self):
        spec = CampaignSpec(
            name="r",
            grids=(ScenarioGrid(
                scenario="sender_reset", params={"k": 25}, repeats=3
            ),),
        )
        tasks = spec.tasks()
        assert len(tasks) == 3
        assert len({t.seed for t in tasks}) == 3
        assert len({t.task_id for t in tasks}) == 3

    def test_expansion_is_deterministic(self):
        assert small_spec().tasks() == small_spec().tasks()

    def test_task_ids_unique_across_grids(self):
        tasks = example_spec(sessions=60).tasks()
        assert len({t.task_id for t in tasks}) == len(tasks)

    def test_seeds_independent_across_tasks(self):
        tasks = example_spec(sessions=60).tasks()
        assert len({t.seed for t in tasks}) == len(tasks)

    def test_base_seed_changes_every_seed_but_not_ids(self):
        a = small_spec()
        b = CampaignSpec(name=a.name, grids=a.grids, base_seed=a.base_seed + 1)
        tasks_a, tasks_b = a.tasks(), b.tasks()
        assert [t.task_id for t in tasks_a] == [t.task_id for t in tasks_b]
        assert all(x.seed != y.seed for x, y in zip(tasks_a, tasks_b))

    def test_task_round_trips_through_dict(self):
        task = small_spec().tasks()[0]
        assert FleetTask.from_dict(task.to_dict()) == task


class TestIterTasks:
    def test_streams_same_tasks_in_same_order(self):
        spec = small_spec()
        assert list(spec.iter_tasks()) == spec.tasks()


def choice_reference(grid: ScenarioGrid, base_seed: int, grid_index: int):
    """Each session's params as ``random.Random.choice`` draws them."""
    rng = random.Random(derive_seed(base_seed, grid_index, "population"))
    axes = sorted(grid.params)
    return [{axis: rng.choice(grid.params[axis]) for axis in axes}
            for _ in range(grid.sessions)]


def population_grid(sizes: list[int], sessions: int) -> ScenarioGrid:
    """Axis ``x{i}`` offers ``sizes[i]`` choices, inserted in reverse
    name order so that the expansion's sorting shows."""
    return ScenarioGrid(
        scenario="sender_reset",
        params={f"x{i:02d}": [f"{i}:{c}" for c in range(size)]
                for i, size in reversed(list(enumerate(sizes)))},
        sessions=sessions,
    )


class TestPopulationDraws:
    """The expansion draws what ``random.Random.choice`` draws."""

    def test_every_bit_length_boundary(self):
        # Axis sizes 1-17 each in one grid: every size from one below to
        # one above a power of two, so every ``bit_length`` and rejection
        # rate of the draw loop.
        grid = population_grid(list(range(1, 18)), sessions=300)
        for base_seed, grid_index in ((2003, 0), (2003, 3), (-1, 1), (2**70, 2)):
            drawn = [task.params for task in grid.expand(base_seed, grid_index)]
            assert drawn == choice_reference(grid, base_seed, grid_index)

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 17), min_size=1, max_size=5),
           sessions=st.integers(1, 40),
           base_seed=st.integers(-(2**80), 2**80),
           grid_index=st.integers(0, 7))
    def test_matches_choice(self, sizes, sessions, base_seed, grid_index):
        grid = population_grid(sizes, sessions)
        drawn = [task.params for task in grid.expand(base_seed, grid_index)]
        assert drawn == choice_reference(grid, base_seed, grid_index)


#: Task ids as campaigns spell them (5- and 6-digit session numbers), and
#: any text, non-ASCII included.
TASK_IDS = st.one_of(
    st.builds(lambda grid, scenario, session: f"g{grid}/{scenario}/s{session:05d}",
              st.integers(0, 12), st.sampled_from(["sender_reset", "gateway_crash"]),
              st.integers(0, 1_999_999)),
    st.text(),
)


class TestSampledCampaign:
    def test_membership_is_deterministic(self):
        spec = example_spec(sessions=400)
        first = [t.task_id for t in SampledCampaign(spec, 80).tasks()]
        second = [t.task_id for t in SampledCampaign(spec, 80).tasks()]
        assert first == second

    @pytest.mark.parametrize(
        "make_spec",
        [lambda: example_spec(sessions=200), grid_mode_spec],
        ids=["population", "grid-repeats"],
    )
    def test_sample_is_a_subset_with_tasks_unchanged(self, make_spec):
        spec = make_spec()
        full = spec.tasks()
        assert len(full) == 200
        sampled = SampledCampaign(spec, 50)
        sample = sampled.tasks()
        assert 0 < len(sample) < 200
        # Exactly the full expansion's kept tasks, in order, unchanged
        # (same params, same seed), each repeat judged by its own id.
        assert sample == [t for t in full if sampled.keeps(t.task_id)]

    def test_sample_is_pinned(self):
        # Ids, params and seeds of a sample are resume keys: the exact
        # tasks (hashed) must never move under an expansion change.
        tasks = SampledCampaign(example_spec(sessions=4000), 400).tasks()
        assert len(tasks) == 400
        assert tasks_digest(tasks) == (
            "2d0dfeb0def3f32b42d94f1c782efc2f93c6b634ad6e0911d88521959d1ed498"
        )

    def test_builds_only_the_kept_tasks(self, monkeypatch):
        spec = example_spec(sessions=4000)
        encoded = []
        real_encode = spec_module.encode_params

        def counting_encode(params):
            encoded.append(params)
            return real_encode(params)

        monkeypatch.setattr(spec_module, "encode_params", counting_encode)
        tasks = SampledCampaign(spec, 400).tasks()
        assert len(encoded) == len(tasks) == 400

    @pytest.mark.parametrize(
        "grid, error",
        [
            (ScenarioGrid(scenario="sender_rest", params={"k": 25}, sessions=40),
             "unknown scenario 'sender_rest'"),
            (ScenarioGrid(scenario="sender_reset", params={"kk": 25}, sessions=40),
             r"no parameter\(s\) \['kk'\]"),
        ],
        ids=["scenario", "axis"],
    )
    def test_misspelled_spec_fails_fast(self, grid, error):
        # Without validation every sampled task would become an error
        # record instead.
        plan = SampledCampaign(CampaignSpec(name="typo", grids=(grid,)), 10)
        with pytest.raises(ValueError, match=error):
            plan.tasks()
        with pytest.raises(ValueError, match=error):
            FleetRunner(plan, MemoryResultStore()).run()

    def test_expected_size_is_near_target(self):
        spec = example_spec(sessions=1000)
        sample = SampledCampaign(spec, 200).tasks()
        # Binomial(1000, 0.2): +-4 sigma is ~+-50.
        assert 150 <= len(sample) <= 250

    def test_membership_independent_of_target_only_through_threshold(self):
        # Every task of a smaller sample need not survive a larger one,
        # but a fixed target is a fixed set; growing the target keeps
        # the expectation proportional across grids.
        spec = example_spec(sessions=500)
        small = {t.task_id for t in SampledCampaign(spec, 50).tasks()}
        large = {t.task_id for t in SampledCampaign(spec, 250).tasks()}
        assert small  # nonempty at this scale
        assert len(large) > len(small)

    def test_target_at_or_above_total_keeps_everything(self):
        spec = example_spec(sessions=40)
        assert SampledCampaign(spec, 40).tasks() == spec.tasks()
        assert SampledCampaign(spec, 10_000).tasks() == spec.tasks()

    @pytest.mark.parametrize("target, error", [
        (0, ValueError), (-1, ValueError), (2.5, TypeError), (True, TypeError),
    ])
    def test_rejects_non_positive_target(self, target, error):
        # A float target would be its own expected sample size.
        with pytest.raises(error, match="target"):
            SampledCampaign(example_spec(sessions=10), target)

    @settings(max_examples=300, deadline=None)
    @given(task_id=TASK_IDS,
           base_seed=st.integers(-(2**80), 2**80),
           total=st.integers(1, 2_000_000),
           target=st.integers(1, 2_000_000))
    def test_keeps_is_the_documented_membership_rule(
        self, task_id, base_seed, total, target
    ):
        spec = CampaignSpec(
            name="m", base_seed=base_seed,
            grids=(ScenarioGrid(scenario="sender_reset", sessions=total),),
        )
        expected = derive_seed(base_seed, "sample", task_id) % total < target
        assert SampledCampaign(spec, target).keeps(task_id) == expected

    def test_runner_surface(self):
        spec = example_spec(sessions=60)
        sampled = SampledCampaign(spec, 20)
        assert sampled.max_events == spec.max_events
        assert sampled.base_seed == spec.base_seed
        assert sampled.session_count() == 20
        assert sampled.name == "mixed-demo~20"


class TestMegafleetSpec:
    def test_expands_to_one_million_sessions(self):
        spec = megafleet_spec()
        assert spec.session_count() == 1_000_000
        spec.validate_scenarios()

    def test_round_trips_through_json(self):
        spec = megafleet_spec()
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_streams_deterministically(self):
        import itertools

        head = list(itertools.islice(megafleet_spec().iter_tasks(), 200))
        again = list(itertools.islice(megafleet_spec().iter_tasks(), 200))
        assert head == again
        ids = [t.task_id for t in head]
        assert len(set(ids)) == len(ids)
        assert all(t.scenario == "sender_reset" for t in head)

    def test_covers_all_four_scenario_families(self):
        scenarios = {grid.scenario for grid in megafleet_spec().grids}
        assert scenarios == {
            "sender_reset", "receiver_reset", "loss_reset", "gateway_crash"
        }
