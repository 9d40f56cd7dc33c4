"""Durable campaign results: append-only JSONL records.

Every finished task becomes one :class:`TaskRecord` line in a
:class:`ResultStore` file.  Append-on-complete plus one-line-per-record
makes the store crash-tolerant by construction: an interrupt can at worst
truncate the final line, which :meth:`ResultStore.records` detects and
drops, so the corresponding task simply reruns on resume.  The runner
never rewrites or reorders the file — records from successive (possibly
interrupted) invocations accumulate.

Records are serialised with sorted keys and a canonical float format, so
two runs of the same spec produce byte-identical lines modulo the
``wall_time`` field (the only wall-clock-dependent value).

Two interchangeable backends implement the same store contract
(``append`` / ``records`` / ``completed_ids`` / ``heal`` /
``corrupt_lines``):

* :class:`ResultStore` — one append-only JSONL file; the default.
* :class:`ShardedResultStore` — ``2**bits`` JSONL files keyed by each
  task's spawn-key prefix, merge-on-read.  The backend for
  million-session campaigns: every shard stays small, crash healing is
  per shard, and aggregation can fold one shard at a time in
  :math:`O(\text{shard})` memory.

Both persist the identical canonical JSON record lines — a campaign
moved between backends re-reads byte-identical records, only the file
placement differs.  Both flush each append before it returns, so a
record the runner has seen appended survives a process kill.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.core.convergence import report_metrics
from repro.util.jsonl import salvage_objects
from repro.util.rng import derive_seed

__all__ = [
    "DEFAULT_SHARD_BITS",
    "MemoryResultStore",
    "PROGRESS_LEDGER_FILE",
    "ResultStore",
    "STATUS_ERROR",
    "STATUS_OK",
    "STORE_KINDS",
    "ShardedResultStore",
    "TaskRecord",
    "detect_store_kind",
    "make_store",
    "progress_ledger_path",
    "report_metrics",  # canonical home: repro.core.convergence
    "shard_index",
]

logger = logging.getLogger(__name__)

#: Record status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Selectable store backends (the CLI's ``--store`` choices).
STORE_KINDS = ("jsonl", "sharded")

#: Default shard count exponent for :class:`ShardedResultStore` (2**4 =
#: 16 shards — enough that a 1M-task campaign keeps every shard around
#: 60k records while tiny campaigns pay only 16 near-empty files).
DEFAULT_SHARD_BITS = 4

#: Upper limit on the shard exponent (2**10 = 1024 files; beyond that
#: the per-file overhead dominates any balance win).
MAX_SHARD_BITS = 10

#: Sidecar file pinning a sharded store's layout, so a resume cannot
#: silently reopen the directory with a different shard count and
#: mis-route appends.
SHARD_META_FILE = "store_meta.json"


@dataclass
class TaskRecord:
    """One completed (or failed) task, as persisted to the store.

    Attributes:
        task_id / scenario / params / seed: echo of the expanded task.
        status: ``"ok"`` or ``"error"``; only ``"ok"`` records count as
            completed for resume purposes, so failed tasks retry.
        metrics: the flattened :class:`ConvergenceReport` (empty on error).
        wall_time: task execution wall time in seconds (the one field
            excluded from determinism comparisons).
        error: ``repr`` of the exception, for ``"error"`` records.
    """

    task_id: str
    scenario: str
    params: dict[str, Any]
    seed: int
    status: str = STATUS_OK
    metrics: dict[str, Any] = field(default_factory=dict)
    wall_time: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "task_id": self.task_id,
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
            "status": self.status,
            "metrics": self.metrics,
            "wall_time": self.wall_time,
        }
        if self.error is not None:
            data["error"] = self.error
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskRecord":
        return cls(
            task_id=data["task_id"],
            scenario=data["scenario"],
            params=dict(data["params"]),
            seed=data["seed"],
            status=data.get("status", STATUS_OK),
            metrics=dict(data.get("metrics", {})),
            wall_time=data.get("wall_time", 0.0),
            error=data.get("error"),
        )

    def to_json(self) -> str:
        """One canonical JSONL line (sorted keys, no stray whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def failing(self) -> bool:
        """True for a session someone will open: it errored, did not
        converge, broke a Section 5 bound or accepted a replay.

        These are the sessions ``CampaignAggregate`` reports as
        failures, plus the ones that did not converge; an observed
        campaign keeps a full per-task metrics file for exactly these.
        """
        if self.status != STATUS_OK:
            return True
        metrics = self.metrics
        return (
            not metrics.get("converged", False)
            or bool(metrics.get("bound_violations"))
            or metrics.get("replays_accepted", 0) > 0
        )


def salvage_line(line: str) -> tuple[list[TaskRecord], bool]:
    """Recover complete records from a torn store line.

    A multiprocessing writer (or a crash between ``write`` and the
    newline) can glue a partial record and one or more complete records
    onto a single physical line.  The raw-decode walk lives in
    :func:`repro.util.jsonl.salvage_objects` (shared with the metrics
    reader and the progress ledger); this wrapper additionally rejects
    salvaged objects that are not valid records.

    Returns:
        ``(records, torn)`` — the salvageable records in order, and True
        if any part of the line was unparseable.
    """
    values, torn = salvage_objects(line)
    records: list[TaskRecord] = []
    for data in values:
        try:
            records.append(TaskRecord.from_dict(data))
        except (KeyError, TypeError):
            torn = True
    return records, torn


class ResultStore:
    """Append-only JSONL store for :class:`TaskRecord` lines.

    The store is deliberately single-writer: the fleet runner appends from
    the parent process only, workers hand records back over the pool, so
    no file locking is needed and line integrity is trivial.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: malformed lines seen by the last :meth:`records` call (a value
        #: above 1 suggests external tampering, not a crash artefact).
        self.corrupt_lines = 0
        # Whether the file is known to end on a whole line: the first
        # append (or heal) reads the tail, and each completed append
        # keeps it so; a write that fails makes it unknown again.
        self._ends_whole = False

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def _ends_mid_line(self) -> bool:
        """True if the file is non-empty and missing its final newline —
        the signature a crash interrupted the previous append."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(-1, 2)
                return handle.read(1) != b"\n"
        except (FileNotFoundError, OSError):
            return False

    def append(self, record: TaskRecord) -> None:
        """Durably append one record (line-buffered, flushed per call).

        If a previous run died mid-write, the file ends without a
        newline; terminate that partial line first so the new record
        does not glue onto it (the partial line then reads as one
        corrupt line and its task reruns).  The tail is read once per
        store: the store is the file's single writer.
        """
        heal = not self._ends_whole and self._ends_mid_line()
        self._ends_whole = False  # unknown until this write completes
        with self.path.open("a", encoding="utf-8") as handle:
            if heal:
                handle.write("\n")
            handle.write(record.to_json() + "\n")
            handle.flush()
        self._ends_whole = True

    def heal(self) -> bool:
        """Terminate a dangling partial line left by a crash, if any.

        Appends do this lazily; calling it eagerly (the runner does, at
        the start of a resume) makes the scan explicit.  Returns True if
        the file was dirty.
        """
        if not self._ends_mid_line():
            self._ends_whole = True
            return False
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write("\n")
        self._ends_whole = True
        logger.warning("%s: healed a dangling partial line", self.path)
        return True

    def records(self) -> Iterator[TaskRecord]:
        """Yield stored records, skipping (and logging) torn lines.

        A torn line — the truncated tail of a crashed append, or two
        interleaved writes glued together — is *skipped*, not treated as
        end-of-file: isolated corruption mid-file loses only the records
        physically damaged, never the valid lines after it.  Complete
        records embedded in a torn line are salvaged (see
        :func:`salvage_line`); whatever is lost simply reruns on resume.
        """
        self.corrupt_lines = 0
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield TaskRecord.from_dict(json.loads(line))
                    continue
                except (json.JSONDecodeError, KeyError, TypeError):
                    pass
                salvaged, torn = salvage_line(line)
                if torn:
                    self.corrupt_lines += 1
                    logger.warning(
                        "%s:%d: skipping torn record fragment "
                        "(%d record(s) salvaged from the line)",
                        self.path, number, len(salvaged),
                    )
                yield from salvaged

    def completed_ids(self) -> set[str]:
        """Task ids recorded with ``status == "ok"`` (the resume set)."""
        return {
            record.task_id
            for record in self.records()
            if record.status == STATUS_OK
        }


class MemoryResultStore:
    """In-memory drop-in for :class:`ResultStore` (no file, no resume).

    Used by drivers that do not need durability — e.g. a one-shot
    experiment run without ``--resume``.  Records still round-trip
    through the canonical JSON encoding on the way in and out, so a
    memory-backed run reduces to exactly the same values as a
    file-backed one (floats, tuples-to-lists, and all).
    """

    def __init__(self) -> None:
        self._lines: list[str] = []
        self.corrupt_lines = 0

    def __len__(self) -> int:
        return len(self._lines)

    def heal(self) -> bool:
        """Nothing to heal — memory stores do not survive crashes."""
        return False

    def append(self, record: TaskRecord) -> None:
        self._lines.append(record.to_json())

    def records(self) -> Iterator[TaskRecord]:
        for line in self._lines:
            yield TaskRecord.from_dict(json.loads(line))

    def completed_ids(self) -> set[str]:
        return {
            record.task_id
            for record in self.records()
            if record.status == STATUS_OK
        }


def shard_index(task_id: str, seed: int, bits: int) -> int:
    """The shard a task's records live in: its spawn-key prefix.

    The key is re-derived from ``(seed, task_id)`` through the same
    SHA-256 spawn-key scheme the fleet uses for per-task seeds
    (:func:`repro.util.rng.derive_seed`), and the top ``bits`` bits pick
    the shard.  Campaign seeds are already uniform 64-bit spawn keys,
    but experiment sweeps pin small explicit seeds — folding the task id
    back in keeps the partition uniform for both, while staying a pure
    function of the task, so every record of a task (error, retry, ok)
    lands in the same shard and within-shard append order is still
    latest-wins truth.
    """
    if bits == 0:
        return 0
    return derive_seed(seed, "shard", task_id) >> (64 - bits)


class ShardedResultStore:
    """``2**bits`` JSONL shard files behind the single-store interface.

    Appends route by :func:`shard_index`; :meth:`records` merges
    shard-by-shard (shard 0's lines first, each shard in append order).
    Because a task's records never split across shards, any per-task
    reduction that holds on one append-ordered file (latest record wins)
    holds on the merge-on-read stream too.

    Crash behaviour is per shard: a kill mid-append tears at most the
    one shard being written, healing rescans only the dirty shards
    (:meth:`heal` checks one tail byte per shard), and record content is
    byte-identical to the single-file store modulo placement.

    The shard count is pinned in ``store_meta.json`` at creation;
    reopening with a conflicting explicit ``bits`` raises instead of
    silently mis-routing a resumed campaign.
    """

    def __init__(self, root: str | Path, bits: int | None = None) -> None:
        self.root = Path(root)
        #: CLI-facing location (mirrors ``ResultStore.path``).
        self.path = self.root
        self.root.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / SHARD_META_FILE
        if meta_path.exists():
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            stored = meta.get("bits")
            if meta.get("kind") != "sharded" or not isinstance(stored, int):
                raise ValueError(f"{meta_path} is not a sharded-store meta file")
            if bits is not None and bits != stored:
                raise ValueError(
                    f"store at {self.root} was created with bits={stored}; "
                    f"reopening with bits={bits} would mis-route appends"
                )
            bits = stored
        elif bits is None:
            bits = DEFAULT_SHARD_BITS
        if not 0 <= bits <= MAX_SHARD_BITS:
            raise ValueError(
                f"shard bits must be in [0, {MAX_SHARD_BITS}], got {bits}"
            )
        self.bits = bits
        if not meta_path.exists():
            meta_path.write_text(
                json.dumps({"kind": "sharded", "bits": bits}) + "\n",
                encoding="utf-8",
            )
        width = max(2, (bits + 3) // 4)
        self.shards = [
            ResultStore(self.root / f"shard-{index:0{width}x}.jsonl")
            for index in range(1 << bits)
        ]
        self.corrupt_lines = 0

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def shard_for(self, task_id: str, seed: int) -> ResultStore:
        """The shard store holding (all of) one task's records."""
        return self.shards[shard_index(task_id, seed, self.bits)]

    def append(self, record: TaskRecord) -> None:
        self.shard_for(record.task_id, record.seed).append(record)

    def records(self) -> Iterator[TaskRecord]:
        """Merge-on-read: every shard's records, in shard then file order."""
        self.corrupt_lines = 0
        for shard in self.shards:
            yield from shard.records()
            self.corrupt_lines += shard.corrupt_lines

    def completed_ids(self) -> set[str]:
        done: set[str] = set()
        for shard in self.shards:
            done |= shard.completed_ids()
        return done

    def dirty_shards(self) -> list[int]:
        """Shards whose file ends mid-line (one tail-byte check each)."""
        return [
            index for index, shard in enumerate(self.shards)
            if shard._ends_mid_line()
        ]

    def heal(self) -> list[int]:
        """Heal only the dirty shards; returns the indices healed."""
        healed = [index for index in self.dirty_shards()
                  if self.shards[index].heal()]
        return healed


#: Per-kind store file/directory names inside a campaign output dir.
_STORE_NAMES = {
    "jsonl": "results.jsonl",
    "sharded": "results.shards",
}


def make_store(
    kind: str, out_dir: str | Path, shard_bits: int | None = None
) -> ResultStore | ShardedResultStore:
    """Build the campaign store of ``kind`` under ``out_dir``.

    Args:
        kind: one of :data:`STORE_KINDS`.
        out_dir: campaign output directory (created as needed).
        shard_bits: shard exponent for ``"sharded"`` (ignored otherwise;
            ``None`` means the stored layout, or the default for a new
            store).
    """
    out_dir = Path(out_dir)
    if kind == "jsonl":
        return ResultStore(out_dir / _STORE_NAMES["jsonl"])
    if kind == "sharded":
        return ShardedResultStore(
            out_dir / _STORE_NAMES["sharded"], bits=shard_bits
        )
    known = ", ".join(STORE_KINDS)
    raise ValueError(f"unknown store kind {kind!r}; known kinds: {known}")


#: The streaming progress ledger's name inside a campaign output dir
#: (lives *beside* the store, whatever the backend: the ledger is the
#: campaign's event log, not a store artifact).
PROGRESS_LEDGER_FILE = "progress.jsonl"


def progress_ledger_path(
    store: ResultStore | ShardedResultStore,
) -> Path | None:
    """Where a store's campaign keeps its ``progress.jsonl``.

    Every backend's CLI-facing ``path`` sits directly inside the
    campaign output directory (the sharded backend's ``path`` *is* its
    shard directory inside it), so the ledger is a sibling of the store.
    Memory stores have no directory — returns ``None``.
    """
    path = getattr(store, "path", None)
    if path is None:
        return None
    return Path(path).parent / PROGRESS_LEDGER_FILE


def detect_store_kind(out_dir: str | Path) -> str | None:
    """The store kind already present under ``out_dir`` (None if fresh).

    Lets a resume omit ``--store``: the CLI reopens whatever backend the
    interrupted run was writing instead of silently starting a second,
    empty store next to it.
    """
    out_dir = Path(out_dir)
    for kind, name in _STORE_NAMES.items():
        if (out_dir / name).exists():
            return kind
    return None
