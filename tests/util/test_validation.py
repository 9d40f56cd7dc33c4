"""Tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
    check_type,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", value)


class TestCheckPositiveInt:
    def test_accepts_positive_int(self):
        assert check_positive_int("w", 64) == 64

    @pytest.mark.parametrize("value", [0.5, 64.7, 64.0, True, None])
    def test_rejects_non_int(self, value):
        with pytest.raises(TypeError, match="w must be int"):
            check_positive_int("w", value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="w must be > 0"):
            check_positive_int("w", value)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative("x", -0.1)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 2])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError, match="p must be in"):
            check_probability("p", value)


class TestCheckType:
    def test_accepts_match(self):
        assert check_type("x", 3, int) == 3

    def test_accepts_tuple_of_types(self):
        assert check_type("x", 3.5, (int, float)) == 3.5

    def test_rejects_mismatch(self):
        with pytest.raises(TypeError, match="x must be int"):
            check_type("x", "3", int)
