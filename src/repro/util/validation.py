"""Argument-validation helpers used across the library.

All raise :class:`ValueError`/:class:`TypeError` with the offending
parameter named, so misconfigured scenarios fail fast and loudly instead of
silently producing wrong simulation results.
"""

from __future__ import annotations

_INF = float("inf")


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_int(name: str, value: int) -> int:
    """Require an ``int`` that is not a ``bool``; return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be int, got {type(value).__name__}")
    return value


def check_positive_int(name: str, value: int) -> int:
    """Require an ``int`` (not a ``bool``) with ``value > 0``; return it."""
    return check_positive(name, check_int(name, value))


def check_non_negative_int(name: str, value: int) -> int:
    """Require an ``int`` (not a ``bool``) with ``value >= 0``; return it."""
    return check_non_negative(name, check_int(name, value))


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_finite_non_negative(name: str, value: float) -> float:
    """Require a finite ``value >= 0`` (NaN and infinity fail); return it."""
    if not 0 <= value < _INF:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value
