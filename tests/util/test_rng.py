"""Tests for repro.util.rng."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import SeedPrefix, derive_seed, make_rng, spawn_rng

#: Spawn-key parts: ints well past 64 bits either way (the encoding is 16
#: signed bytes) and any text, non-ASCII included.
PARTS = st.lists(
    st.one_of(st.integers(min_value=-(2**100), max_value=2**100), st.text()),
    max_size=4,
)


class TestMakeRng:
    def test_none_gives_default_seed_deterministically(self):
        a = make_rng(None)
        b = make_rng(None)
        assert a.random() == b.random()

    def test_int_seed_is_deterministic(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_distinct_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_existing_generator_passthrough(self):
        rng = random.Random(7)
        assert make_rng(rng) is rng

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError, match="expected int seed"):
            make_rng("seed")  # type: ignore[arg-type]


class TestSpawnRng:
    def test_same_label_same_stream(self):
        a = spawn_rng(random.Random(5), "link")
        b = spawn_rng(random.Random(5), "link")
        assert [a.random() for _ in range(4)] == [b.random() for _ in range(4)]

    def test_different_labels_differ(self):
        parent = random.Random(5)
        a = spawn_rng(parent, "link")
        parent2 = random.Random(5)
        b = spawn_rng(parent2, "adversary")
        assert a.random() != b.random()

    def test_child_independent_of_parent_consumption(self):
        parent = random.Random(9)
        child = spawn_rng(parent, "x")
        first = child.random()
        parent.random()  # consuming the parent must not affect the child
        assert child.random() != first  # child stream advances on its own


class TestDeriveSeed:
    def test_pure_function_of_root_and_path(self):
        assert derive_seed(7, "grid", 0) == derive_seed(7, "grid", 0)

    def test_distinct_paths_give_distinct_seeds(self):
        seeds = {
            derive_seed(7),
            derive_seed(7, 0),
            derive_seed(7, 1),
            derive_seed(7, "a"),
            derive_seed(7, "a", 0),
            derive_seed(8, "a", 0),
        }
        assert len(seeds) == 6

    def test_int_and_str_parts_do_not_collide(self):
        assert derive_seed(1, 0) != derive_seed(1, "0")

    def test_pinned_values(self):
        # Task seeds and sample membership are resume keys: a re-encoding
        # that moved any of these would orphan every stored result.
        assert derive_seed(2003, "g", 0, "sender_reset", 42) == 251250539418181924
        assert derive_seed(2003, "sample", "g0/sender_reset/s00042") == (
            8422581100595664473
        )
        assert derive_seed(-5, -1) == 13691430822791290438
        assert derive_seed(7) == 15547108957440905334

    def test_stable_across_interpreters(self):
        # derive_seed must never depend on PYTHONHASHSEED or the
        # platform, or fleet resume breaks across processes.
        import pathlib
        import subprocess
        import sys

        import repro.util.rng as rng_module
        src_dir = str(pathlib.Path(rng_module.__file__).parents[2])
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.util.rng import derive_seed;"
             "print(derive_seed(2003, 'g', 0, 'sender_reset', 42))"],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src_dir, "PYTHONHASHSEED": "12345"},
        )
        assert int(out.stdout) == 251250539418181924

    def test_negative_roots_and_parts_accepted(self):
        assert derive_seed(-5, -1) != derive_seed(-5, 1)

    def test_result_fits_in_64_bits(self):
        for seed in (derive_seed(0), derive_seed(2**80, "x"), derive_seed(-1)):
            assert 0 <= seed < 2**64

    def test_rejects_non_int_str_parts(self):
        with pytest.raises(TypeError, match="int or str"):
            derive_seed(0, 1.5)
        with pytest.raises(TypeError, match="int or str"):
            derive_seed(0, True)

    def test_spawn_rng_built_on_derive_seed_is_hashseed_stable(self):
        a = spawn_rng(random.Random(5), "link")
        b = spawn_rng(random.Random(5), "link")
        assert a.getrandbits(64) == b.getrandbits(64)


class TestSeedPrefix:
    @settings(max_examples=300, deadline=None)
    @given(root=st.integers(min_value=-(2**100), max_value=2**100),
           prefix=PARTS, tail=PARTS)
    def test_matches_derive_seed(self, root, prefix, tail):
        assert SeedPrefix(root, *prefix)(*tail) == derive_seed(root, *prefix, *tail)

    @settings(max_examples=300, deadline=None)
    @given(root=st.integers(min_value=-(2**100), max_value=2**100),
           prefix=PARTS, tail=st.text())
    def test_text_matches_derive_seed(self, root, prefix, tail):
        assert SeedPrefix(root, *prefix).text(tail) == (
            derive_seed(root, *prefix, tail)
        )

    def test_text_pinned(self):
        membership_key = SeedPrefix(2003, "sample").text
        assert membership_key("g0/sender_reset/s00042") == 8422581100595664473
        assert membership_key("") == derive_seed(2003, "sample", "")

    def test_edge_parts(self):
        for prefix, tail in [
            ((), ()),
            ((), ("sample", "g0/sender_reset/s00042")),
            (("g", 0, "sender_reset"), ()),
            ((-1, "é∂"), (-(2**64), "ß\u2603", "")),
        ]:
            assert SeedPrefix(2003, *prefix)(*tail) == (
                derive_seed(2003, *prefix, *tail)
            )

    def test_reusable(self):
        task_seed = SeedPrefix(2003, "g", 0, "sender_reset")
        assert [task_seed(42), task_seed(7), task_seed(42)] == [
            251250539418181924,
            derive_seed(2003, "g", 0, "sender_reset", 7),
            251250539418181924,
        ]

    def test_rejects_non_int_str_parts(self):
        for bad in (True, 1.5):
            with pytest.raises(TypeError, match="int or str"):
                SeedPrefix(0, bad)
            with pytest.raises(TypeError, match="int or str"):
                SeedPrefix(0, "ok")(bad)
