"""Tests for repro.fleet.aggregate: percentiles, summaries, outliers,
and the quantile sketch (from repro.obs.hub) the fold spills to."""

from __future__ import annotations

import pytest

from repro.fleet.aggregate import (
    CampaignAggregate,
    FleetSummary,
    Outlier,
    OutlierReservoir,
    summarize,
    summarize_store,
)
from repro.fleet.results import STATUS_ERROR, STATUS_OK, TaskRecord
from repro.obs.hub import SKETCH_RELATIVE_ERROR, QuantileSketch, percentile


def record(task_id: str, **overrides) -> TaskRecord:
    metrics = {
        "converged": True,
        "sender_resets": 1,
        "receiver_resets": 0,
        "replays_accepted": 0,
        "fresh_discarded": 2,
        "lost_seqnums_per_reset": [10],
        "gaps_sender": [4],
        "gaps_receiver": [],
        "time_to_converge": [2e-4],
        "bound_violations": [],
        "fresh_sent": 100,
        "delivered_uids": 98,
        "never_arrived": 0,
    }
    metrics.update(overrides.pop("metrics", {}))
    defaults = dict(
        task_id=task_id,
        scenario="sender_reset",
        params={"k": 25},
        seed=11,
        status=STATUS_OK,
        metrics=metrics,
        wall_time=0.25,
    )
    defaults.update(overrides)
    return TaskRecord(**defaults)


class TestPercentile:
    def test_known_points(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0
        assert percentile(values, 75) == 4.0

    def test_interpolates_between_ranks(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="outside"):
            percentile([1.0], 101)


class TestSummarize:
    def test_counts_and_totals(self):
        records = [
            record("a"),
            record("b", metrics={"replays_accepted": 3, "converged": False}),
            record("c", status=STATUS_ERROR, metrics={}, error="RuntimeError: x"),
        ]
        summary = summarize(records)
        assert summary.tasks == 3
        assert summary.ok == 2
        assert summary.errors == 1
        assert summary.converged == 1
        assert summary.replays_accepted_total == 3
        assert summary.fresh_discarded_total == 4
        assert summary.lost_seqnums_total == 20
        assert summary.resets_total == 2
        assert summary.wall_time_total == pytest.approx(0.75)

    def test_convergence_percentiles(self):
        records = [
            record(f"t{i}", metrics={"time_to_converge": [i * 1e-4]})
            for i in range(1, 11)
        ]
        summary = summarize(records)
        assert summary.convergence_time["p50"] == pytest.approx(5.5e-4)
        assert summary.convergence_time["max"] == pytest.approx(10e-4)

    def test_empty_records(self):
        summary = summarize([])
        assert summary == FleetSummary()
        assert "sessions: 0" in summary.render()

    def test_outliers_prefer_failures_over_slow_convergers(self):
        records = [
            record("slow", metrics={"time_to_converge": [9.0]}),
            record("viol", metrics={
                "bound_violations": ["gap too big"], "converged": False,
            }),
            record("replay", metrics={"replays_accepted": 2, "converged": False}),
            record("err", status=STATUS_ERROR, metrics={}, error="E: x"),
        ]
        summary = summarize(records, worst_k=3)
        reasons = [o.reason for o in summary.outliers]
        assert "slow_converge" not in reasons
        assert set(reasons) == {"error", "violations", "replays"}

    def test_outliers_carry_repro_seed_and_params(self):
        summary = summarize([record("a", seed=424242)])
        outlier = summary.outliers[0]
        assert outlier.seed == 424242
        assert outlier.params == {"k": 25}
        assert "seed=424242" in outlier.summary()

    def test_duplicate_task_ids_count_once_with_latest_winning(self):
        # A resumed store: the task errored once, then retried fine.
        records = [
            record("a", status=STATUS_ERROR, metrics={}, error="E: transient"),
            record("a"),
        ]
        summary = summarize(records)
        assert summary.tasks == 1
        assert summary.ok == 1
        assert summary.errors == 0
        assert summary.converged == 1

    def test_render_mentions_key_quantities(self):
        text = summarize([record("a")]).render()
        assert "sessions: 1" in text
        assert "converged: 1/1" in text
        assert "time-to-converge" in text
        assert "worst cases" in text


class TestQuantileSketch:
    def values(self, n: int = 400, seed: int = 7) -> list[float]:
        import random

        rng = random.Random(seed)
        return [rng.lognormvariate(-8.0, 1.0) for _ in range(n)]

    def fill(self, values) -> QuantileSketch:
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        return sketch

    @staticmethod
    def assert_same_distribution(a: QuantileSketch, b: QuantileSketch) -> None:
        """Everything quantiles depend on is exactly equal; only the
        running ``total`` (and hence ``mean``) may differ in the last
        bits, float addition not being associative."""
        assert a.counts == b.counts
        assert a.underflow == b.underflow
        assert a.count == b.count
        assert a.minimum == b.minimum
        assert a.maximum == b.maximum
        assert a.total == pytest.approx(b.total)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert a.quantile(q) == b.quantile(q)

    def test_merge_is_commutative(self):
        values = self.values()
        ab = self.fill(values[:150])
        ab.merge(self.fill(values[150:]))
        ba = self.fill(values[150:])
        ba.merge(self.fill(values[:150]))
        self.assert_same_distribution(ab, ba)

    def test_merge_is_associative(self):
        values = self.values()
        chunks = [values[:100], values[100:250], values[250:]]
        left = self.fill(chunks[0])
        left.merge(self.fill(chunks[1]))
        left.merge(self.fill(chunks[2]))
        tail = self.fill(chunks[1])
        tail.merge(self.fill(chunks[2]))
        right = self.fill(chunks[0])
        right.merge(tail)
        self.assert_same_distribution(left, right)

    def test_merge_equals_single_pass(self):
        values = self.values()
        merged = self.fill(values[:97])
        merged.merge(self.fill(values[97:]))
        self.assert_same_distribution(merged, self.fill(values))

    def test_quantile_conservative_within_error_bound(self):
        values = sorted(self.values(1000))
        sketch = self.fill(values)
        for q in (0.5, 0.9, 0.99):
            true_value = values[min(len(values) - 1, int(q * len(values)))]
            estimate = sketch.quantile(q)
            # Never understates, never overstates by more than one
            # sub-bucket width.
            assert estimate >= values[int(q * len(values)) - 1]
            assert estimate <= true_value * (1.0 + SKETCH_RELATIVE_ERROR)

    def test_quantile_clamped_to_observed_max(self):
        sketch = self.fill([3e-4, 5e-4, 7e-4])
        assert sketch.quantile(1.0) == 7e-4

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0

    def test_non_positive_values_counted_in_underflow(self):
        sketch = self.fill([0.0, -1.0, 2e-4])
        assert sketch.underflow == 2
        assert sketch.count == 3
        assert sketch.quantile(0.1) == -1.0  # exact minimum answers low ranks

    def test_dict_round_trip(self):
        sketch = self.fill(self.values(100))
        restored = QuantileSketch.from_dict(sketch.as_dict())
        assert restored.as_dict() == sketch.as_dict()
        for q in (0.5, 0.9, 0.99):
            assert restored.quantile(q) == sketch.quantile(q)


class TestOutlierReservoir:
    def outlier(self, i: int, value: float) -> Outlier:
        return Outlier(
            task_id=f"t{i:04d}", scenario="s", seed=i, params={},
            reason="slow_converge", value=value,
        )

    def test_matches_full_sort_selection_under_any_order(self):
        import random

        rng = random.Random(3)
        outliers = [self.outlier(i, rng.random()) for i in range(300)]
        expected = sorted(
            outliers, key=lambda o: (-o.value, o.task_id)
        )[:5]
        for trial in range(3):
            shuffled = outliers[:]
            rng.shuffle(shuffled)
            reservoir = OutlierReservoir(5)
            for outlier in shuffled:
                reservoir.add_slow(outlier)
            assert reservoir.top() == expected

    def test_failures_always_outrank_slow(self):
        reservoir = OutlierReservoir(2)
        for i in range(50):
            reservoir.add_slow(self.outlier(i, 100.0 + i))
        failure = Outlier(
            task_id="boom", scenario="s", seed=1, params={},
            reason="error", value=1.0,
        )
        reservoir.add_failure(failure)
        assert reservoir.top()[0] == failure

    def test_merge_equals_single_reservoir(self):
        outliers = [self.outlier(i, float(i % 17)) for i in range(120)]
        whole = OutlierReservoir(5)
        for outlier in outliers:
            whole.add_slow(outlier)
        left, right = OutlierReservoir(5), OutlierReservoir(5)
        for outlier in outliers[:60]:
            left.add_slow(outlier)
        for outlier in outliers[60:]:
            right.add_slow(outlier)
        left.merge(right)
        assert left.top() == whole.top()


class TestCampaignAggregate:
    def test_merge_matches_single_pass_summary(self):
        records = [
            record(f"t{i}", metrics={"time_to_converge": [(i + 1) * 1e-4]})
            for i in range(40)
        ]
        whole = CampaignAggregate()
        for item in records:
            whole.observe(item)
        left, right = CampaignAggregate(), CampaignAggregate()
        for item in records[:17]:
            left.observe(item)
        for item in records[17:]:
            right.observe(item)
        left.merge(right)
        assert left.summary() == whole.summary()

    def test_exact_mode_matches_legacy_interpolation(self):
        records = [
            record(f"t{i}", metrics={"time_to_converge": [i * 1e-4]})
            for i in range(1, 11)
        ]
        summary = summarize(records)
        assert summary.percentile_mode == "exact"
        times = [i * 1e-4 for i in range(1, 11)]
        assert summary.convergence_time["p50"] == percentile(times, 50)
        assert summary.convergence_time["p99"] == percentile(times, 99)
        assert summary.convergence_time["max"] == percentile(times, 100)

    def test_spills_to_sketch_past_exact_cap(self):
        times = [(i % 97 + 1) * 1e-5 for i in range(64)]
        records = [
            record(f"t{i}", metrics={"time_to_converge": [t]})
            for i, t in enumerate(times)
        ]
        summary = summarize(records, exact_cap=16)
        assert summary.percentile_mode == "sketch"
        exact = summarize(records)  # default cap: fully exact
        assert summary.convergence_time["max"] == exact.convergence_time["max"]
        for key in ("p50", "p90", "p99"):
            approx = summary.convergence_time[key]
            true = exact.convergence_time[key]
            assert approx >= true * (1.0 - 1e-12)
            assert approx <= true * (1.0 + SKETCH_RELATIVE_ERROR) + 1e-12
        assert "sketch" in summary.render()

    def test_spill_is_independent_of_merge_grouping(self):
        records = [
            record(f"t{i}", metrics={"time_to_converge": [(i + 1) * 1e-4]})
            for i in range(30)
        ]
        whole = CampaignAggregate(exact_cap=10)
        for item in records:
            whole.observe(item)
        parts = [CampaignAggregate(exact_cap=10) for _ in range(3)]
        for i, item in enumerate(records):
            parts[i % 3].observe(item)
        merged = parts[0]
        merged.merge(parts[1])
        merged.merge(parts[2])
        assert merged.summary() == whole.summary()


def store_with(records, make, tmp_path):
    store = make(tmp_path)
    for item in records:
        store.append(item)
    return store


class TestSummarizeStore:
    def records(self):
        items = [
            record(f"t{i}", metrics={"time_to_converge": [(i + 1) * 1e-4]},
                   seed=100 + i)
            for i in range(25)
        ]
        # One retried task: error first, then ok — latest must win.
        items.insert(
            0, record("t3", status=STATUS_ERROR, metrics={}, seed=103,
                      error="E: transient"),
        )
        return items

    def test_matches_summarize_on_single_file_store(self, tmp_path):
        from repro.fleet.results import ResultStore

        store = store_with(
            self.records(), lambda p: ResultStore(p / "r.jsonl"), tmp_path
        )
        assert summarize_store(store) == summarize(store.records())

    def test_identical_across_shard_counts_and_backends(self, tmp_path):
        from repro.fleet.results import ResultStore, ShardedResultStore

        items = self.records()
        summaries = []
        for tag, make in [
            ("jsonl", lambda p: ResultStore(p / "r.jsonl")),
            ("b0", lambda p: ShardedResultStore(p / "s0", bits=0)),
            ("b2", lambda p: ShardedResultStore(p / "s2", bits=2)),
            ("b5", lambda p: ShardedResultStore(p / "s5", bits=5)),
        ]:
            store = store_with(items, make, tmp_path / tag)
            summaries.append(summarize_store(store))
        first = summaries[0]
        for other in summaries[1:]:
            assert other == first
        assert first.tasks == 25
        assert first.errors == 0  # the retried task's ok record won
