"""Seeded random-number-generator helpers.

The simulation never touches the global :mod:`random` state.  Components
that need randomness accept either a seed (``int``), an existing
:class:`random.Random`, or ``None`` (meaning "derive a default, fixed
seed"), and normalise it through :func:`make_rng`.

:func:`spawn_rng` derives an independent child generator from a parent in a
deterministic way, so that adding a new random component to a scenario does
not perturb the random streams of existing components.

:func:`derive_seed` is the pure spawn-key derivation underneath: it folds a
root seed and a path of labels through SHA-256, so the same
``(root, *path)`` always yields the same 64-bit seed — in any process, under
any ``PYTHONHASHSEED``.  The fleet runner leans on this to give every task
in a campaign an independent, reproducible seed regardless of execution
order or worker count.  :class:`SeedPrefix` is the same derivation with a
fixed leading path hashed once, for deriving many seeds under one path.
"""

from __future__ import annotations

import hashlib
import random
import struct

_DEFAULT_SEED = 0xC0FFEE

#: A ``str`` part's UTF-8 length prefix, and a seed read off the first 8
#: bytes of a SHA-256 digest (both little-endian, unsigned).
_LENGTH = struct.Struct("<I").pack
_SEED = struct.Struct("<Q").unpack_from


def _str_part(text: str) -> bytes:
    """The spawn-key encoding of one ``str`` part (see :func:`_feed`)."""
    encoded = text.encode()
    return b"s" + _LENGTH(len(encoded)) + encoded


def _feed(hasher: hashlib._Hash, path: tuple[int | str, ...]) -> None:
    """Fold spawn-key ``path`` parts into ``hasher``, canonically encoded.

    The one per-part encoder behind :func:`derive_seed` and
    :class:`SeedPrefix`: an ``int`` is ``b"i"`` plus 16 little-endian
    signed bytes, a ``str`` is ``b"s"`` plus its 4-byte little-endian
    UTF-8 length and bytes (:func:`_str_part`).  Anything else, ``bool``
    included, is a :class:`TypeError`.
    """
    for part in path:
        if isinstance(part, str):
            hasher.update(_str_part(part))
        elif isinstance(part, int) and not isinstance(part, bool):
            hasher.update(b"i" + part.to_bytes(16, "little", signed=True))
        else:
            raise TypeError(
                f"spawn-key path parts must be int or str, got {type(part).__name__}"
            )


def derive_seed(root: int, *path: int | str) -> int:
    """Derive a 64-bit seed from ``root`` and a spawn-key ``path``.

    The derivation is a pure function of its arguments (SHA-256 over a
    canonical encoding), so it is stable across processes and interpreter
    invocations — unlike :func:`hash`, which is salted per process for
    strings.  Distinct paths give independent seeds; the same path always
    gives the same seed.

    Args:
        root: the campaign / scenario master seed.
        path: any mix of ``int`` and ``str`` labels identifying the
            component (e.g. ``derive_seed(7, "grid", 0, "task", 42)``).

    Returns:
        An unsigned 64-bit seed suitable for :func:`make_rng`.
    """
    hasher = hashlib.sha256(int(root).to_bytes(16, "little", signed=True))
    _feed(hasher, path)
    return _SEED(hasher.digest())[0]


class SeedPrefix:
    """:func:`derive_seed` with a fixed leading path, hashed once.

    ``SeedPrefix(root, *prefix)(*tail) == derive_seed(root, *prefix, *tail)``
    bit for bit; each call copies the SHA-256 state left after the prefix
    instead of rehashing it.  For deriving many seeds under one path —
    every task seed of a campaign grid, every sample-membership key of a
    campaign (:meth:`text`, the one-``str``-tail form).
    """

    __slots__ = ("_hasher",)

    def __init__(self, root: int, *prefix: int | str) -> None:
        self._hasher = hashlib.sha256(int(root).to_bytes(16, "little", signed=True))
        _feed(self._hasher, prefix)

    def __call__(self, *tail: int | str) -> int:
        hasher = self._hasher.copy()
        _feed(hasher, tail)
        return _SEED(hasher.digest())[0]

    def text(self, tail: str) -> int:
        """``self(tail)`` for one ``str`` tail, without the per-part dispatch."""
        hasher = self._hasher.copy()
        hasher.update(_str_part(tail))
        return _SEED(hasher.digest())[0]


def make_rng(seed_or_rng: int | random.Random | None = None) -> random.Random:
    """Normalise ``seed_or_rng`` into a :class:`random.Random` instance.

    Args:
        seed_or_rng: an ``int`` seed, an existing generator (returned
            as-is), or ``None`` for a fixed library-default seed.

    Returns:
        A :class:`random.Random` ready for use.
    """
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    if seed_or_rng is None:
        return random.Random(_DEFAULT_SEED)
    if isinstance(seed_or_rng, int):
        return random.Random(seed_or_rng)
    raise TypeError(
        f"expected int seed, random.Random or None, got {type(seed_or_rng).__name__}"
    )


def spawn_rng(parent: random.Random, label: str) -> random.Random:
    """Derive an independent child generator from ``parent``.

    The child's seed is a deterministic function of the parent's current
    state and a ``label``, so distinct labels give independent streams and
    the same (parent state, label) pair always gives the same stream.

    Args:
        parent: generator to derive from (its state advances by one draw).
        label: name of the component the child is for.

    Returns:
        A new :class:`random.Random` seeded from ``parent`` and ``label``.
    """
    base = parent.getrandbits(64)
    return random.Random(derive_seed(base, label))
