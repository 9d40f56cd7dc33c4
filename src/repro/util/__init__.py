"""Small shared utilities: seeded randomness, unit helpers, validation.

These helpers are deliberately tiny and dependency-free; every stochastic
component in the library takes an explicit :class:`random.Random` (or a
seed) so that simulations are reproducible bit-for-bit.
"""

from repro.util.rng import derive_seed, make_rng, spawn_rng
from repro.util.units import (
    MICROSECOND,
    MILLISECOND,
    SECOND,
    microseconds,
    milliseconds,
    seconds,
)
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "derive_seed",
    "make_rng",
    "microseconds",
    "milliseconds",
    "seconds",
    "spawn_rng",
]
