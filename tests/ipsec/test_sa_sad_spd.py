"""Tests for SA records."""

import copy
import pickle
from dataclasses import replace

from repro.ipsec.crypto import hmac_digest
from repro.ipsec.sa import make_sa, make_sa_pair


class TestSecurityAssociation:
    def test_unique_spis(self):
        a = make_sa("p", "q", seed_or_rng=1)
        b = make_sa("p", "q", seed_or_rng=1)
        assert a.spi != b.spi

    def test_keys_derived_from_master(self):
        a = make_sa("p", "q", seed_or_rng=1, master_secret=b"m" * 32)
        b = make_sa("p", "q", seed_or_rng=2, master_secret=b"m" * 32, generation=0)
        assert a.auth_key == b.auth_key  # same master, same direction/generation

    def test_generation_separates_keys(self):
        a = make_sa("p", "q", master_secret=b"m" * 32, generation=0)
        b = make_sa("p", "q", master_secret=b"m" * 32, generation=1)
        assert a.auth_key != b.auth_key

    def test_auth_and_enc_keys_differ(self):
        sa = make_sa("p", "q", seed_or_rng=1)
        assert sa.auth_key != sa.enc_key

    def test_mac_keyed_by_auth_key(self):
        sa = make_sa("p", "q", seed_or_rng=1)
        assert sa.mac.digest(b"data") == hmac_digest(sa.auth_key, b"data")
        rekeyed = replace(sa, auth_key=sa.enc_key)
        assert rekeyed.mac.digest(b"data") == hmac_digest(sa.enc_key, b"data")

    def test_mac_outside_repr_eq_and_hash(self):
        a = make_sa("p", "q", seed_or_rng=1, spi=0x10)
        b = make_sa("p", "q", seed_or_rng=1, spi=0x10)
        assert a.mac is not b.mac
        assert a == b and hash(a) == hash(b)
        assert "mac" not in repr(a)

    def test_pickles_and_deep_copies(self):
        sa = make_sa("p", "q", seed_or_rng=1)
        for clone in (pickle.loads(pickle.dumps(sa)), copy.deepcopy(sa)):
            assert clone == sa
            assert clone.mac.digest(b"data") == sa.mac.digest(b"data")

    def test_pair_directions(self):
        pair = make_sa_pair("a", "b", seed_or_rng=0)
        assert pair.forward.src == "a" and pair.forward.dst == "b"
        assert pair.backward.src == "b" and pair.backward.dst == "a"

    def test_pair_directional_keys_differ(self):
        pair = make_sa_pair("a", "b", seed_or_rng=0)
        assert pair.forward.auth_key != pair.backward.auth_key

