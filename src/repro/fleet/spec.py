"""Declarative campaign specifications.

A :class:`CampaignSpec` describes a whole population of scenario runs —
which scenarios, over which parameter choices, how many sessions, under
which master seed — without executing anything.  Specs round-trip through
plain dicts and JSON, so campaigns live in version-controllable files and
travel unchanged between the CLI, the runner, and worker processes.

Expansion (:meth:`CampaignSpec.tasks`) is pure and deterministic: the same
spec always yields the same list of :class:`FleetTask` with the same ids
and the same per-task seeds, derived via the stable spawn-key scheme in
:func:`repro.util.rng.derive_seed`.  That invariant is what makes fleet
results resumable and byte-for-byte reproducible.

Params that are not plain JSON travel as tagged one-key dicts
(``__costmodel__``, ``__fault__``, ``__pathprofile__``); validation
decodes them once, so an unknown ``__dunder__`` tag or a malformed fault
fails when the spec is loaded, before any task runs.
"""

from __future__ import annotations

import inspect
import itertools
import json
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.faults import Fault
from repro.ipsec.costs import CostModel
from repro.netpath.profile import PathProfile
from repro.util.rng import SeedPrefix, derive_seed, make_rng
from repro.util.validation import check_int, check_positive_int
from repro.workloads.scenarios import SCENARIOS

#: Default per-task event budget (see ``Engine.hard_event_limit``): far
#: above any sane scenario (~10 events per message, thousands of
#: messages), low enough to kill a self-rescheduling loop in seconds.
DEFAULT_MAX_EVENTS = 5_000_000

#: Tag key marking a JSON-encoded :class:`~repro.ipsec.costs.CostModel`
#: inside task params (see :func:`encode_params` / :func:`decode_params`).
COSTMODEL_TAG = "__costmodel__"

#: Tag key marking a JSON-encoded :class:`~repro.faults.Fault` (any
#: kind of :data:`~repro.faults.FAULT_KINDS`; its ``kind`` dispatches).
FAULT_TAG = "__fault__"

#: Tag key marking a JSON-encoded :class:`~repro.netpath.PathProfile`.
PATHPROFILE_TAG = "__pathprofile__"

#: Every tag :func:`decode_param_value` knows, each with its decoder.
_DECODERS: dict[str, Callable[[Any], Any]] = {
    COSTMODEL_TAG: lambda data: CostModel(**data),
    FAULT_TAG: Fault.from_dict,
    PATHPROFILE_TAG: PathProfile.from_dict,
}

#: Types :func:`encode_param_value` returns as they are (exact types only:
#: a subclass such as an ``IntEnum`` still takes the isinstance chain).
_PLAIN_TYPES = frozenset({type(None), bool, int, float, str})


def encode_param_value(value: Any) -> Any:
    """JSON-safe encoding of one scenario kwarg.

    :class:`CostModel` instances, faults and path profiles become tagged
    dicts so per-task cost overrides, fault schedules and time-varying
    path timelines survive the JSONL result store and hand-written
    campaign spec files; tuples become lists
    (what JSON would do anyway), keeping in-memory and from-disk
    expansions identical.
    """
    if type(value) in _PLAIN_TYPES:
        return value
    if isinstance(value, CostModel):
        return {COSTMODEL_TAG: {k: v for k, v in vars(value).items()}}
    if isinstance(value, Fault):
        return {FAULT_TAG: value.to_dict()}
    if isinstance(value, PathProfile):
        return {PATHPROFILE_TAG: value.to_dict()}
    if isinstance(value, (tuple, list)):
        return [encode_param_value(item) for item in value]
    if isinstance(value, Mapping):
        return {k: encode_param_value(v) for k, v in value.items()}
    return value


def decode_param_value(value: Any) -> Any:
    """Inverse of :func:`encode_param_value` (tagged dicts -> objects).

    Raises:
        ValueError: for a one-key mapping whose key is a ``__dunder__``
            tag this codec does not know (a misspelt or retired tag would
            otherwise reach the scenario as a plain dict).
    """
    if isinstance(value, Mapping):
        if len(value) == 1:
            (tag,) = value
            if tag in _DECODERS:
                return _DECODERS[tag](value[tag])
            if isinstance(tag, str) and tag.startswith("__") and tag.endswith("__"):
                known = ", ".join(sorted(_DECODERS))
                raise ValueError(f"unknown param tag {tag!r}; known tags: {known}")
        return {k: decode_param_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_param_value(item) for item in value]
    return value


def encode_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Encode a scenario kwargs mapping for JSON-safe task transport."""
    return {key: encode_param_value(value) for key, value in params.items()}


def decode_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Decode task params back into scenario-ready kwargs."""
    return {key: decode_param_value(value) for key, value in params.items()}


def validate_scenario_params(
    scenario: str, params: Mapping[str, Any], context: str
) -> None:
    """Check that ``scenario`` is registered, ``params`` name real kwargs
    and every param value decodes.

    Catching a misspelled scenario, parameter axis, tag or malformed
    fault here costs one signature inspection and one decode; catching
    it later costs the whole campaign, one per-task error record at a
    time.
    """
    if scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"{context}: unknown scenario {scenario!r}; known scenarios: {known}"
        )
    signature = inspect.signature(SCENARIOS[scenario])
    allowed = set(signature.parameters) - {"seed"}
    unknown = sorted(set(params) - allowed)
    if unknown:
        detail = (
            "'seed' is derived per task and cannot be a parameter axis"
            if unknown == ["seed"]
            else f"valid parameters: {', '.join(sorted(allowed))}"
        )
        raise ValueError(
            f"{context}: scenario {scenario!r} has no parameter(s) "
            f"{unknown}; {detail}"
        )
    for axis, value in params.items():
        try:
            decode_param_value(value)
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{context}: parameter {axis!r}: {exc}") from None


@dataclass(frozen=True)
class FleetTask:
    """One executable unit of a campaign: a scenario call, fully pinned.

    Attributes:
        task_id: stable identifier, unique within the campaign; the
            resume key in the result store.
        scenario: name in :data:`repro.workloads.scenarios.SCENARIOS`.
        params: keyword arguments for the scenario (seed excluded).
        seed: the derived, independent seed for this task.
    """

    task_id: str
    scenario: str
    params: Mapping[str, Any]
    seed: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "task_id": self.task_id,
            "scenario": self.scenario,
            "params": dict(self.params),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetTask":
        return cls(
            task_id=data["task_id"],
            scenario=data["scenario"],
            params=dict(data["params"]),
            seed=data["seed"],
        )


def _as_choices(axis: str, value: Any) -> tuple[Any, ...]:
    """Normalise a grid axis value into a non-empty tuple of choices."""
    if isinstance(value, (list, tuple)):
        if not value:
            raise ValueError(f"axis {axis!r} has an empty choice list")
        return tuple(value)
    return (value,)  # a bare scalar is a single-choice axis


@dataclass(frozen=True)
class ScenarioGrid:
    """One scenario plus its parameter space.

    Attributes:
        scenario: registry name of the scenario to run.
        params: axis name -> choice list (a bare scalar means "always
            this value").  Axes are combined in sorted-name order, so the
            expansion does not depend on dict insertion order.
        sessions: ``None`` expands the full cartesian product of the
            axes ("grid mode"); an ``int`` draws that many sessions, each
            with one choice per axis picked by a spec-seeded RNG
            ("population mode" — how a 10k-session mixed campaign stays a
            three-line spec).
        repeats: grid mode only — replicate every combination this many
            times under distinct seeds.
    """

    scenario: str
    params: Mapping[str, Any] = field(default_factory=dict)
    sessions: int | None = None
    repeats: int = 1

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ValueError("scenario name must be non-empty")
        if self.sessions is not None:
            check_positive_int("sessions", self.sessions)
        check_positive_int("repeats", self.repeats)
        if self.sessions is not None and self.repeats != 1:
            raise ValueError(
                "repeats applies to grid mode only; population mode "
                "(sessions=N) draws each session independently — drop "
                "repeats or raise sessions"
            )
        for axis, value in self.params.items():
            _as_choices(axis, value)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "scenario": self.scenario,
            "params": {k: encode_param_value(v) for k, v in self.params.items()},
        }
        if self.sessions is not None:
            data["sessions"] = self.sessions
        if self.repeats != 1:
            data["repeats"] = self.repeats
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioGrid":
        return cls(
            scenario=data["scenario"],
            params=dict(data.get("params", {})),
            sessions=data.get("sessions"),
            repeats=data.get("repeats", 1),
        )

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def session_count(self) -> int:
        """Number of tasks this grid expands to."""
        if self.sessions is not None:
            return self.sessions
        count = self.repeats
        for axis in self.params:
            count *= len(_as_choices(axis, self.params[axis]))
        return count

    def expand(
        self,
        base_seed: int,
        grid_index: int,
        keep: Callable[[str], bool] | None = None,
    ) -> Iterator[FleetTask]:
        """Yield this grid's tasks with derived ids and seeds.

        ``keep``, if given, sees each task id before anything else of the
        task is built; a task it rejects costs its id and, in population
        mode, its parameter draw (so the RNG stream stays the same).
        """
        axes = sorted(self.params)
        choices = [_as_choices(axis, self.params[axis]) for axis in axes]
        task_seed = SeedPrefix(base_seed, grid_index, self.scenario)
        prefix = f"g{grid_index}/{self.scenario}/"
        if self.sessions is None:
            combos = enumerate(itertools.product(*choices))
            for combo_index, combo in combos:
                for rep in range(self.repeats):
                    task_id = f"{prefix}c{combo_index:05d}" + (
                        f"r{rep}" if self.repeats > 1 else ""
                    )
                    if keep is None or keep(task_id):
                        yield FleetTask(
                            task_id=task_id,
                            scenario=self.scenario,
                            params=encode_params(dict(zip(axes, combo))),
                            seed=task_seed(combo_index, rep),
                        )
        else:
            # Population mode: the draw RNG is itself spawn-key derived,
            # so the sampled parameters are a pure function of the spec.
            # Each axis draw is ``random.Random.choice``'s loop, inlined
            # (the same stream, two Python frames fewer a draw): ``k =
            # n.bit_length()`` random bits, redrawn until below ``n``.
            # Only a kept task turns its drawn indices into choices.
            getrandbits = make_rng(
                derive_seed(base_seed, grid_index, "population")
            ).getrandbits
            sizes = [(len(c), len(c).bit_length()) for c in choices]
            for session in range(self.sessions):
                drawn = []
                for n, k in sizes:
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    drawn.append(r)
                task_id = f"{prefix}s{session:05d}"
                if keep is None or keep(task_id):
                    yield FleetTask(
                        task_id=task_id,
                        scenario=self.scenario,
                        params=encode_params({
                            axis: axis_choices[r]
                            for axis, axis_choices, r in zip(axes, choices, drawn)
                        }),
                        seed=task_seed(session),
                    )


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, declarative fleet campaign.

    Attributes:
        name: campaign label, a non-empty ``str`` that is one path
            component (no ``/`` or ``\\``, not ``.`` or ``..``): the
            default output directory is ``fleet_runs/<name>``.
        grids: the scenario populations making up the campaign.
        base_seed: master seed every per-task seed is derived from; an
            ``int``, not a ``bool``.
        max_events: hard per-task event budget handed to the engine guard
            (see :class:`repro.sim.engine.EngineEventLimitError`).
    """

    name: str
    grids: tuple[ScenarioGrid, ...]
    base_seed: int = 0
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self) -> None:
        name = self.name
        if not isinstance(name, str):
            raise TypeError(f"campaign name must be str, got {type(name).__name__}")
        if not name:
            raise ValueError("campaign name must be non-empty")
        if name in (".", "..") or "/" in name or "\\" in name:
            raise ValueError(
                "campaign name must be one path component (no '/' or '\\', "
                f"not '.' or '..'), got {name!r}"
            )
        if not self.grids:
            raise ValueError("campaign needs at least one scenario grid")
        object.__setattr__(self, "grids", tuple(
            grid if isinstance(grid, ScenarioGrid) else ScenarioGrid.from_dict(grid)
            for grid in self.grids
        ))
        check_int("base_seed", self.base_seed)
        check_positive_int("max_events", self.max_events)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "base_seed": self.base_seed,
            "max_events": self.max_events,
            "grids": [grid.to_dict() for grid in self.grids],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        missing = [key for key in ("name", "grids") if key not in data]
        if missing:
            raise ValueError(f"campaign spec missing required keys: {missing}")
        return cls(
            name=data["name"],
            grids=tuple(ScenarioGrid.from_dict(g) for g in data["grids"]),
            base_seed=data.get("base_seed", 0),
            max_events=data.get("max_events", DEFAULT_MAX_EVENTS),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def dump(self, path: str | Path) -> Path:
        """Write the spec as JSON to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "CampaignSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def validate_scenarios(self) -> None:
        """Check every grid names a registered scenario and real params."""
        for grid in self.grids:
            validate_scenario_params(
                grid.scenario, grid.params, f"campaign {self.name!r}"
            )

    def session_count(self) -> int:
        """Total number of tasks the spec expands to."""
        return sum(grid.session_count() for grid in self.grids)

    def tasks(self) -> list[FleetTask]:
        """Expand into the deterministic, ordered task list."""
        self.validate_scenarios()
        expanded = list(self.iter_tasks())
        ids = [task.task_id for task in expanded]
        if len(set(ids)) != len(ids):  # only reachable via a future id-scheme bug
            raise ValueError(f"campaign {self.name!r} expanded to duplicate task ids")
        return expanded

    def iter_tasks(
        self, keep: Callable[[str], bool] | None = None
    ) -> Iterator[FleetTask]:
        """Stream the expansion without materialising the task list.

        Same tasks in the same order as :meth:`tasks`, one at a time —
        the path for million-task campaigns where even the id list is
        worth not holding.  ``keep``, if given, filters by task id before
        each task is built (see :meth:`ScenarioGrid.expand`).  Skips the
        duplicate-id audit (:meth:`tasks` still performs it; the id scheme
        makes duplicates unreachable short of a bug there).
        """
        for grid_index, grid in enumerate(self.grids):
            yield from grid.expand(self.base_seed, grid_index, keep)


class SampledCampaign:
    """A deterministic subsample of a campaign, runnable as a campaign.

    Membership is decided per task by hashing its id against the spec's
    base seed — ``derive_seed(base_seed, "sample", task_id) % total <
    target`` — so whether a task is in the sample depends on nothing but
    the spec and the target: not on execution order, job count, store
    backend, or which other tasks ran.  The same ``--sample N`` therefore
    resumes exactly like the full campaign — kill it, re-run it, the
    sample is the same set.  Expected size is ``target`` with binomial
    spread (~±2·sqrt(target)); exactness is not needed where this is
    used — CI-scale spot checks of full campaigns.

    The decision is made from the id alone, before the task's params are
    encoded, its seed derived or its :class:`FleetTask` built, so a
    sample of a million-task campaign builds only the tasks it keeps.

    Duck-types the spec surface :class:`~repro.fleet.runner.FleetRunner`
    uses (``tasks()``, ``iter_tasks()``, ``session_count()``,
    ``max_events``, ``name``, ``base_seed``).
    """

    def __init__(self, spec: CampaignSpec, target: int) -> None:
        check_positive_int("target", target)
        self.spec = spec
        self.target = target
        #: denominator of the membership test: the full campaign size.
        self.total = spec.session_count()
        self.name = f"{spec.name}~{target}"
        self.base_seed = spec.base_seed
        self.max_events = spec.max_events
        self._membership_key = SeedPrefix(self.base_seed, "sample").text

    def keeps(self, task_id: str) -> bool:
        """Whether ``task_id`` is in the sample (pure, order-free)."""
        if self.target >= self.total:
            return True
        return self._membership_key(task_id) % self.total < self.target

    def iter_tasks(self) -> Iterator[FleetTask]:
        return self.spec.iter_tasks(keep=self.keeps)

    def tasks(self) -> list[FleetTask]:
        self.spec.validate_scenarios()
        return list(self.iter_tasks())

    def session_count(self) -> int:
        """The *expected* sample size (exact count requires expansion)."""
        return min(self.target, self.total)


def megafleet_spec(base_seed: int = 2003) -> CampaignSpec:
    """The million-session campaign: 10^6 mixed recovery stories.

    Four population-mode grids of 250k sessions each — sender resets,
    receiver resets (with and without history replay), lossy resets, and
    multi-SA gateway crashes — every parameter drawn per session from the
    spec-seeded RNG.  Expansion is deterministic and streams through
    :meth:`CampaignSpec.iter_tasks` in about 8 s; a :class:`SampledCampaign`
    builds only the tasks it keeps, so a ``--sample`` takes about a third
    of that (``benchmarks/bench_m7_megafleet``, 2 vCPUs).  *Running* it in
    full is a ``--runslow`` benchmark affair, while CI exercises a
    deterministic ~2k-session ``--sample``.
    """
    sessions_per_grid = 250_000
    return CampaignSpec(
        name="megafleet",
        base_seed=base_seed,
        grids=(
            ScenarioGrid(
                scenario="sender_reset",
                params={
                    "k": 25,
                    "reset_after_sends": [40, 45, 50, 55, 60],
                    "messages_after_reset": [40, 60],
                },
                sessions=sessions_per_grid,
            ),
            ScenarioGrid(
                scenario="receiver_reset",
                params={
                    "k": 25,
                    "reset_after_receives": [40, 50, 60],
                    "messages_after_reset": [40, 60],
                    "replay_history_after": [True, False],
                },
                sessions=sessions_per_grid,
            ),
            ScenarioGrid(
                scenario="loss_reset",
                params={
                    "k": 25,
                    "loss_rate": [0.0, 0.02, 0.05, 0.1],
                    "reset_after_sends": [45, 50, 55],
                    "messages_after_reset": [40, 60],
                },
                sessions=sessions_per_grid,
            ),
            ScenarioGrid(
                scenario="gateway_crash",
                params={
                    "n_sas": [2, 4, 8],
                    "store_policy": ["serial", "batched", "write_ahead"],
                    "crash_after_sends": [50, 60],
                    "messages_after_reset": [40, 60],
                },
                sessions=sessions_per_grid,
            ),
        ),
    )


def example_spec(sessions: int = 60, base_seed: int = 2003) -> CampaignSpec:
    """A small mixed-scenario campaign, used by docs, examples and tests.

    Keeps the paper's safe SAVE interval (K=25, the T_save/T_send
    minimum) but shortens the streams so a session takes milliseconds;
    ``sessions`` splits across a sender-reset population, randomized
    receiver-replay / loss populations, and (from 4 sessions up) a
    multi-SA ``gateway_crash`` population exercising the shared-store
    write policies.  Below 3 sessions there is nothing to split — it
    degenerates to sender resets only.
    """
    check_positive_int("sessions", sessions)
    if sessions < 3:
        return CampaignSpec(
            name="mixed-demo",
            base_seed=base_seed,
            grids=(ScenarioGrid(
                scenario="sender_reset",
                params={
                    "k": 25,
                    "reset_after_sends": [40, 45, 50, 55, 60],
                    "messages_after_reset": 60,
                },
                sessions=sessions,
            ),),
        )
    share = max(1, sessions // 4) if sessions >= 4 else max(1, sessions // 3)
    grids = [
        ScenarioGrid(
            scenario="receiver_reset",
            params={
                "k": 25,
                "reset_after_receives": [40, 50, 60],
                "messages_after_reset": 60,
                "replay_history_after": [True, False],
            },
            sessions=share,
        ),
        ScenarioGrid(
            scenario="loss_reset",
            params={
                "k": 25,
                "loss_rate": [0.0, 0.02, 0.05],
                "reset_after_sends": 50,
                "messages_after_reset": 60,
            },
            sessions=share,
        ),
    ]
    if sessions >= 4:
        grids.append(ScenarioGrid(
            scenario="gateway_crash",
            params={
                "n_sas": [2, 4],
                "store_policy": ["serial", "batched", "write_ahead"],
                "crash_after_sends": [50, 60],
                "messages_after_reset": 60,
            },
            sessions=share,
        ))
    grids.insert(0, ScenarioGrid(
        scenario="sender_reset",
        params={
            "k": 25,
            "reset_after_sends": [40, 45, 50, 55, 60],
            "messages_after_reset": 60,
        },
        sessions=sessions - share * len(grids),
    ))
    return CampaignSpec(
        name="mixed-demo",
        base_seed=base_seed,
        grids=tuple(grids),
    )
