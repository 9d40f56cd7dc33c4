"""Tests for repro.util.validation."""

import pytest

from repro.util.validation import (
    check_int,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("value", [0, -1, -0.001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", value)


class TestCheckInt:
    @pytest.mark.parametrize("value", [-(2**70), -1, 0, 2003])
    def test_accepts_any_int(self, value):
        assert check_int("seed", value) == value

    @pytest.mark.parametrize("value", [2.5, 2.0, "2", True, None])
    def test_rejects_non_int(self, value):
        with pytest.raises(TypeError, match="seed must be int"):
            check_int("seed", value)


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


class TestCheckNonNegativeInt:
    def test_accepts_zero_and_positive_int(self):
        assert check_non_negative_int("d", 0) == 0
        assert check_non_negative_int("d", 3) == 3

    @pytest.mark.parametrize("value", [2.5, 2.0, False, None])
    def test_rejects_non_int(self, value):
        with pytest.raises(TypeError, match="d must be int"):
            check_non_negative_int("d", value)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="d must be >= 0"):
            check_non_negative_int("d", -1)


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

