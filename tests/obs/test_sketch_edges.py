"""Edge cases the diff engine leans on: quantile bounds and hardened
deserialization for QuantileSketch, the one histogram type.

The cross-run diff gates on ``quantile_bounds`` intervals, so these pin
the degenerate shapes — empty, single observation, all-equal, spilled,
underflow — and the bounds-contain-truth contract that makes "within
sketch error" an honest verdict.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.hub import SKETCH_RELATIVE_ERROR, QuantileSketch, percentile


class TestSketchQuantileBounds:
    def test_empty_is_zero_width_zero(self):
        assert QuantileSketch().quantile_bounds(0.5) == (0.0, 0.0)

    def test_single_observation_exact(self):
        sketch = QuantileSketch()
        sketch.observe(0.003)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert sketch.quantile_bounds(q) == (0.003, 0.003)

    def test_all_equal_stream_exact(self):
        sketch = QuantileSketch()
        for _ in range(1000):
            sketch.observe(7.0)
        assert sketch.quantile_bounds(0.99) == (7.0, 7.0)

    def test_bounds_contain_truth(self):
        values = [0.0001 * (1 + i % 97) for i in range(5000)]
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        for q in (0.1, 0.5, 0.9, 0.99):
            lo, hi = sketch.quantile_bounds(q)
            truth = percentile(values, q * 100.0)
            assert lo <= truth <= hi, (q, lo, truth, hi)

    def test_width_respects_documented_error(self):
        sketch = QuantileSketch()
        for i in range(1000):
            sketch.observe(0.001 * (1 + i % 50))
        lo, hi = sketch.quantile_bounds(0.99)
        assert lo >= hi / (1.0 + SKETCH_RELATIVE_ERROR) - 1e-12

    def test_underflow_values_bounded(self):
        sketch = QuantileSketch()
        sketch.observe(0.0)
        sketch.observe(0.0)
        sketch.observe(1.0)
        lo, hi = sketch.quantile_bounds(0.5)
        assert lo <= 0.0 <= hi

    def test_lo_clamped_to_minimum(self):
        sketch = QuantileSketch()
        sketch.observe(1.0)
        sketch.observe(1.001)  # same bucket as 1.0's upper region
        lo, hi = sketch.quantile_bounds(0.99)
        assert lo >= 1.0  # never below the observed minimum


class TestSketchFromDictHardening:
    def roundtrip(self, sketch, drop=()):
        data = sketch.as_dict()
        for key in drop:
            data.pop(key, None)
        return QuantileSketch.from_dict(data)

    def build(self, values):
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        return sketch

    def test_full_round_trip(self):
        sketch = self.build([0.001, 0.002, 0.004, 0.0])
        loaded = self.roundtrip(sketch)
        assert loaded.count == sketch.count
        assert loaded.minimum == sketch.minimum
        assert loaded.maximum == sketch.maximum
        assert loaded.quantile(0.5) == sketch.quantile(0.5)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=50,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
        drop=st.sampled_from([(), ("min",), ("max",), ("min", "max")]),
    )
    # The top bucket's upper edge is 2**1024, past the largest float.
    @example(values=[1.7976931348623157e308], q=0.5, drop=("max",))
    def test_missing_min_derives_conservative(self, values, q, drop):
        # The documented contract: the bounds contain the ceil(q*n)-th
        # order statistic, whichever extremes the payload still carries.
        loaded = self.roundtrip(self.build(values), drop=drop)
        lo, hi = loaded.quantile_bounds(q)
        truth = sorted(values)[max(1, math.ceil(q * len(values))) - 1]
        assert lo <= truth <= hi, (lo, truth, hi)

    def test_missing_max_derives_upper_edge(self):
        sketch = self.build([0.5, 1.0, 2.0])
        loaded = self.roundtrip(sketch, drop=("max",))
        assert loaded.maximum >= sketch.maximum

    def test_missing_min_with_underflow_is_zero(self):
        sketch = self.build([0.0, 1.0])
        loaded = self.roundtrip(sketch, drop=("min",))
        assert loaded.minimum == 0.0

    def test_empty_payload(self):
        loaded = QuantileSketch.from_dict({})
        assert loaded.count == 0
        assert loaded.quantile_bounds(0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("payload", [
        # A recovery_latency histogram exported before the hub adopted
        # the sketch: bucket 21 meant [2**-10, 2**-9), one per octave.
        {"buckets": {"21": 8}, "count": 8, "max": 0.0018, "mean": 0.00145,
         "min": 0.0011, "p50": 0.0018, "p99": 0.0018, "total": 0.0116},
        {"buckets": {"-40": 2}, "count": 2,
         "relative_error": 2.0 ** 0.25 - 1.0},
    ], ids=["one-per-octave", "four-per-octave"])
    def test_refuses_payload_of_another_resolution(self, payload):
        with pytest.raises(ValueError, match="relative_error"):
            QuantileSketch.from_dict(payload)


class TestMixedDiffShapes:
    """The two distribution-evidence shapes diff pairwise sanely."""

    @staticmethod
    def evidence(values):
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        return sketch

    @pytest.mark.parametrize("q", [0.5, 0.99])
    def test_same_data_intervals_overlap_pairwise(self, q):
        values = [0.001 * (1 + i % 11) for i in range(300)]
        exact = percentile(values, q * 100.0)
        intervals = [self.evidence(values).quantile_bounds(q), (exact, exact)]
        for a_lo, a_hi in intervals:
            for b_lo, b_hi in intervals:
                assert a_lo <= b_hi and b_lo <= a_hi, (
                    "same-data evidence shapes must overlap"
                )

    def test_shifted_data_separates_cleanly(self):
        base_values = [0.001 * (1 + i % 11) for i in range(300)]
        cur_values = [v * 4.0 for v in base_values]  # beyond any slop
        cur = self.evidence(cur_values).quantile_bounds(0.99)
        exact = percentile(base_values, 99.0)
        for base in (self.evidence(base_values).quantile_bounds(0.99),
                     (exact, exact)):
            assert cur[0] > base[1], "4x shift must clear the error bounds"
