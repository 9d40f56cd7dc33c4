"""Span tracer for the end-to-end benchmark: wraps layer calls from outside.

:meth:`Tracer.install` replaces each layer's entry points (see
:data:`SPANS`) on their classes and modules with timing wrappers, so every
object built afterwards routes its calls through them; :meth:`uninstall`
puts the originals back.  Nothing in the program itself changes.

Wrappers nest on one stack.  A span's *self* time is its duration minus
the durations of its child spans, minus the per-call wrapper cost that
:meth:`Tracer.calibrate` measures before tracing.  ``Engine.run`` is a span
like any other, so its self time is the engine's own dispatch plus the
callee code no span covers (timers, listeners): the engine residual.

Totals are kept for every call.  Full spans are kept for a bounded sample
— every per-session span, per-message spans until ``span_limit`` — and
:meth:`write_chrome` writes them as Chrome-trace JSON for Perfetto.

Counts are not measured by the tracer: it keeps the instances of
:data:`COUNTED` classes built while installed and :meth:`harvest` sums
their own statistics, so every count is the program's own counter.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable


def _send_key(args: tuple) -> str:
    sender = args[0]
    return f"{sender.name}:{sender.s}"


def _deliver_key(args: tuple) -> str:
    return f"{args[0].name}:{getattr(args[1], 'seq', '?')}"


def _task_key(args: tuple) -> str:
    return args[0].task_id


#: ``(module, class or None, attribute, span name, sample key, per-session)``.
#: A span with a key starts a new sample key (a message or a task) for the
#: spans beneath it; per-session spans are always kept in the Chrome trace,
#: per-message spans only until the span limit.  ``Link._deliver`` and
#: ``PersistentStore._commit`` are the engine's callbacks into the link and
#: the store: wrapping them keeps that work out of the engine residual.
SPANS: tuple[tuple[str, str | None, str, str, Callable | None, bool], ...] = (
    ("repro.sim.engine", "Engine", "run", "sim.engine.run", None, True),
    ("repro.core.sender", "BaseSender", "send_one",
     "core.sender.send_one", _send_key, False),
    ("repro.core.sender", None, "seal", "core.encap.seal", None, False),
    ("repro.core.audit", "DeliveryAuditor", "register_send",
     "core.audit.register_send", None, False),
    ("repro.net.link", "Link", "send", "net.link.send", None, False),
    ("repro.net.link", "Link", "inject", "net.link.inject", None, False),
    ("repro.net.link", "Link", "_deliver", "net.link.deliver",
     _deliver_key, False),
    ("repro.core.receiver", "BaseReceiver", "on_receive",
     "core.receiver.on_receive", None, False),
    ("repro.core.receiver", None, "open_packet", "core.encap.open", None, False),
    ("repro.ipsec.replay_window", "BitmapReplayWindow", "update",
     "ipsec.replay_window.update", None, False),
    ("repro.core.audit", "DeliveryAuditor", "note_processed",
     "core.audit.note_processed", None, False),
    ("repro.core.persistent", "PersistentStore", "begin_save",
     "core.persistent.begin_save", None, False),
    ("repro.core.persistent", "PersistentStore", "_commit",
     "core.persistent.commit", None, False),
    ("repro.core.protocol", None, "build_protocol", "workloads.build", None, True),
    ("repro.workloads.scenarios", None, "build_protocol",
     "workloads.build", None, True),
    ("repro.core.protocol", None, "score_run", "core.audit.score", None, True),
    ("repro.gateway.core", None, "score_run", "core.audit.score", None, True),
    ("repro.gateway.core", "Gateway", "__init__", "gateway.build", None, True),
    ("repro.gateway.core", "Gateway", "score", "gateway.score", None, True),
    ("repro.fleet.runner", None, "execute_task", "fleet.session", _task_key, True),
    ("repro.fleet.results", "ShardedResultStore", "append",
     "fleet.results.append", None, True),
    ("repro.fleet.aggregate", None, "summarize_store",
     "fleet.aggregate.summarize", None, True),
    ("repro.fleet.runner", None, "write_metrics_jsonl", "obs.export", None, True),
    ("repro.obs.stream", "CampaignStream", "emit", "obs.stream.emit", None, True),
)


def _harvest_engine(engine: Any, counts: Counter, peaks: dict) -> None:
    counts["sim.engine.events"] += engine.events_processed


def _harvest_link(link: Any, counts: Counter, peaks: dict) -> None:
    counts["net.link.offered"] += link.offered
    counts["net.link.delivered"] += link.delivered
    counts["netpath.transitions"] += link.path_transitions


def _harvest_sender(sender: Any, counts: Counter, peaks: dict) -> None:
    counts["core.sender.sent"] += sender.sent_total
    counts["core.sender.suppressed"] += sender.sends_suppressed


def _harvest_receiver(receiver: Any, counts: Counter, peaks: dict) -> None:
    for verdict, count in receiver.verdict_counts.items():
        counts[f"ipsec.replay_window.verdict_{verdict.value}"] += count
    counts["core.receiver.dropped_down"] += receiver.dropped_while_down
    counts["core.receiver.buffered"] += sum(
        record.buffered_during_wake for record in receiver.reset_records
    )


def _harvest_store(store: Any, counts: Counter, peaks: dict) -> None:
    counts["core.persistent.saves"] += store.saves_started
    counts["core.persistent.saves_aborted"] += store.saves_aborted
    counts["core.persistent.fetches"] += store.fetches


def _harvest_adversary(adversary: Any, counts: Counter, peaks: dict) -> None:
    counts["net.adversary.recorded"] += len(adversary.recorded)
    counts["net.adversary.injections"] += adversary.injections


def _harvest_shared_store(store: Any, counts: Counter, peaks: dict) -> None:
    counts["gateway.store.device_writes"] += store.device_writes
    counts["gateway.store.batches"] += store.batches
    peaks["gateway.store.max_fetch_wait"] = max(
        peaks.get("gateway.store.max_fetch_wait", 0.0), store.max_fetch_wait
    )


#: ``(module, class, harvest)``: instances whose counters are summed.
COUNTED: tuple[tuple[str, str, Callable[[Any, Counter, dict], None]], ...] = (
    ("repro.sim.engine", "Engine", _harvest_engine),
    ("repro.net.link", "Link", _harvest_link),
    ("repro.core.sender", "BaseSender", _harvest_sender),
    ("repro.core.receiver", "BaseReceiver", _harvest_receiver),
    ("repro.core.persistent", "PersistentStore", _harvest_store),
    ("repro.net.adversary", "ReplayAdversary", _harvest_adversary),
    ("repro.gateway.store", "SharedStore", _harvest_shared_store),
)


class Tracer:
    """Per-layer span totals, a bounded span sample and harvested counts.

    Args:
        span_limit: how many per-message spans the Chrome trace keeps.
    """

    def __init__(self, span_limit: int = 30_000) -> None:
        #: span name -> [calls, total ns, self ns, wrapped calls beneath];
        #: the times are as measured, wrapper cost included.
        self.stats: dict[str, list[int]] = {}
        #: ``(name, start ns, duration ns, sample key)`` per kept span.
        self.spans: list[tuple[str, int, int, str | None]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        #: wrapper cost inside a span's measured interval (ns per call).
        self.inner_ns = 0.0
        #: wrapper cost outside it, charged to the parent (ns per call).
        self.outer_ns = 0.0
        self.span_limit = span_limit
        self._stack: list[list[Any]] = [[0, None, 0]]
        self._patches: list[tuple[Any, str, Any]] = []
        self._instances: list[tuple[list[Any], Callable]] = []
        self._origin = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        key: Callable[[tuple], str] | None = None,
        per_session: bool = False,
    ) -> Callable:
        """A timing wrapper around ``fn`` recording under span ``name``."""
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        outer = int(round(self.outer_ns))
        limit = self.span_limit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            # frame: child time, sample key, wrapped calls beneath.  Keys
            # are only computed while spans are still being kept.
            if key is None or len(spans) >= limit:
                frame = [0, parent[1], 0]
            else:
                frame = [0, key(args), 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                stats[3] += frame[2]
                parent[0] += duration + outer
                parent[2] += frame[2] + 1
                if per_session or len(spans) < limit:
                    spans.append((name, start, duration, frame[1]))

        return wrapper

    def install(self) -> None:
        """Patch every :data:`SPANS` entry point and :data:`COUNTED` class."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, name, key, per_session in SPANS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            wrapped = self.wrap(getattr(owner, attr), name, key, per_session)
            if name == "fleet.session":
                wrapped = self._harvesting(wrapped)
            self._patch(owner, attr, wrapped)
        for module_name, class_name, harvest in COUNTED:
            cls = getattr(importlib.import_module(module_name), class_name)
            bucket: list[Any] = []
            self._instances.append((bucket, harvest))
            self._patch(cls, "__init__", _registering(cls.__init__, bucket))

    def uninstall(self) -> None:
        """Restore every patched attribute (the tracer keeps its data)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # Read from __dict__ so a class gets back exactly the function it
        # defined, not a bound or inherited lookup.
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _harvesting(self, fn: Callable) -> Callable:
        """Harvest counters after each fleet session, so one campaign's
        simulations are not all kept alive until the campaign ends."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                return fn(*args, **kwargs)
            finally:
                self.harvest()

        return wrapper

    def harvest(self) -> None:
        """Add the counters of every instance built so far, then drop them."""
        for bucket, harvest in self._instances:
            for obj in bucket:
                harvest(obj, self.counts, self.peaks)
            bucket.clear()

    # ------------------------------------------------------------------
    # Calibration and results
    # ------------------------------------------------------------------
    def calibrate(self, calls: int = 20_000, rounds: int = 9) -> None:
        """Measure the wrapper's cost per call, inside and outside a span.

        Times a loop of calls to a one-argument function bare and wrapped
        (after subtracting the empty loop); the wrapped call's extra cost
        is the wrapper total, and the part of it inside the wrapper's own
        measured interval is what a span's duration over-reports.  The
        fastest round counts: a slower one measured the host, not the
        wrapper.
        """

        def noop(value: Any) -> Any:
            return value

        clock = time.perf_counter_ns
        numbers = range(calls)
        best = None
        for _ in range(rounds):
            probe = Tracer()
            wrapped = probe.wrap(noop, "calibration")
            started = clock()
            for _ in numbers:
                pass
            loop = clock() - started
            started = clock()
            for number in numbers:
                noop(number)
            bare = clock() - started - loop
            started = clock()
            for number in numbers:
                wrapped(number)
            total = clock() - started - loop - bare
            measured = probe.stats["calibration"][1] - bare
            if best is None or total < best[0]:
                best = (total, measured)
        total, measured = best
        self.inner_ns = measured / calls
        self.outer_ns = (total - measured) / calls

    @property
    def wrapper_ns(self) -> float:
        """The whole cost one wrapped call adds."""
        return self.inner_ns + self.outer_ns

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0, 0))[0]

    def total_ns(self, name: str) -> float:
        """Time span ``name`` would have taken untraced: its duration less
        its own and every wrapped call's wrapper cost beneath it."""
        calls, total, _, beneath = self.stats.get(name, (0, 0, 0, 0))
        return total - calls * self.inner_ns - beneath * self.wrapper_ns

    def self_ns(self, name: str) -> float:
        """Corrected self time of span ``name``."""
        calls, _, own, _ = self.stats.get(name, (0, 0, 0, 0))
        return own - calls * self.inner_ns

    def layer_table(self) -> list[tuple[str, int, float, float]]:
        """``(span, calls, corrected total ms, corrected self ms)`` rows,
        largest self time first."""
        rows = [
            (name, stat[0], self.total_ns(name) / 1e6, self.self_ns(name) / 1e6)
            for name, stat in self.stats.items()
            if stat[0]
        ]
        return sorted(rows, key=lambda row: -row[3])

    def write_chrome(self, path: Path) -> None:
        """Write the kept spans as Chrome-trace JSON (open in Perfetto)."""
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": (start - self._origin) / 1e3,
                "dur": duration / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"key": key},
            }
            for name, start, duration, key in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ns"}),
            encoding="utf-8",
        )


def _registering(init: Callable, bucket: list[Any]) -> Callable:
    def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
        init(obj, *args, **kwargs)
        bucket.append(obj)

    return __init__
