"""Tests for SA records, the SAD and the SPD."""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.ipsec.crypto import hmac_digest
from repro.ipsec.sa import make_sa, make_sa_pair
from repro.ipsec.sad import SecurityAssociationDatabase
from repro.ipsec.spd import PolicyAction, SecurityPolicyDatabase, SpdEntry


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

    def test_expiry(self):
        sa = make_sa("p", "q", now=0.0, lifetime_seconds=10.0)
        assert not sa.expired(5.0)
        assert sa.expired(10.0)

    def test_pair_directions(self):
        pair = make_sa_pair("a", "b", seed_or_rng=0)
        assert pair.forward.src == "a" and pair.forward.dst == "b"
        assert pair.backward.src == "b" and pair.backward.dst == "a"
        assert pair.for_sender("a") is pair.forward
        assert pair.for_sender("b") is pair.backward
        with pytest.raises(KeyError):
            pair.for_sender("c")

    def test_pair_directional_keys_differ(self):
        pair = make_sa_pair("a", "b", seed_or_rng=0)
        assert pair.forward.auth_key != pair.backward.auth_key


class TestSad:
    def test_add_and_lookup_inbound(self):
        sad = SecurityAssociationDatabase()
        sa = make_sa("p", "q", seed_or_rng=1)
        sad.add(sa)
        assert sad.lookup_inbound(sa.spi, "q") is sa
        assert sad.lookup_inbound(sa.spi, "r") is None

    def test_duplicate_add_rejected(self):
        sad = SecurityAssociationDatabase()
        sa = make_sa("p", "q", seed_or_rng=1)
        sad.add(sa)
        with pytest.raises(ValueError, match="already exists"):
            sad.add(sa)

    def test_outbound_prefers_newest_generation(self):
        sad = SecurityAssociationDatabase()
        old = make_sa("p", "q", seed_or_rng=1, generation=0)
        new = make_sa("p", "q", seed_or_rng=2, generation=1)
        sad.add(old)
        sad.add(new)
        assert sad.lookup_outbound("p", "q") is new

    def test_remove(self):
        sad = SecurityAssociationDatabase()
        sa = make_sa("p", "q", seed_or_rng=1)
        sad.add(sa)
        assert sad.remove(sa)
        assert not sad.remove(sa)
        assert len(sad) == 0

    def test_remove_peer_bulk_teardown(self):
        """The IETF remedy's operation: drop every SA between two hosts."""
        sad = SecurityAssociationDatabase()
        for seed in range(3):
            pair = make_sa_pair("a", "b", seed_or_rng=seed)
            sad.add(pair.forward)
            sad.add(pair.backward)
        other = make_sa("a", "c", seed_or_rng=99)
        sad.add(other)
        assert sad.remove_peer("a", "b") == 6
        assert len(sad) == 1
        assert sad.lookup_outbound("a", "c") is other

    def test_sas_involving(self):
        sad = SecurityAssociationDatabase()
        pair = make_sa_pair("a", "b", seed_or_rng=0)
        sad.add(pair.forward)
        sad.add(pair.backward)
        sad.add(make_sa("c", "d", seed_or_rng=1))
        assert len(sad.sas_involving("a")) == 2

    def test_expire(self):
        sad = SecurityAssociationDatabase()
        short = make_sa("p", "q", seed_or_rng=1, now=0.0, lifetime_seconds=1.0)
        long = make_sa("p", "q", seed_or_rng=2, now=0.0, lifetime_seconds=100.0)
        sad.add(short)
        sad.add(long)
        expired = sad.expire(now=5.0)
        assert expired == [short]
        assert len(sad) == 1


class TestSpd:
    def test_first_match_wins(self):
        spd = SecurityPolicyDatabase()
        spd.add_rule("p", "q", "*", PolicyAction.PROTECT)
        spd.add_rule("*", "*", "*", PolicyAction.BYPASS)
        assert spd.match("p", "q") is PolicyAction.PROTECT
        assert spd.match("x", "y") is PolicyAction.BYPASS

    def test_default_action(self):
        spd = SecurityPolicyDatabase()
        assert spd.match("p", "q") is PolicyAction.DISCARD

    def test_protocol_selector(self):
        spd = SecurityPolicyDatabase()
        spd.add_rule("*", "*", "esp", PolicyAction.PROTECT)
        assert spd.match("p", "q", "esp") is PolicyAction.PROTECT
        assert spd.match("p", "q", "ah") is PolicyAction.DISCARD

    def test_wildcards(self):
        entry = SpdEntry("*", "q", "any", PolicyAction.PROTECT)
        assert entry.matches("anyone", "q", "esp")
        assert not entry.matches("anyone", "r", "esp")

    def test_entries_copy(self):
        spd = SecurityPolicyDatabase()
        spd.add_rule("p", "q", "*", PolicyAction.PROTECT)
        entries = spd.entries()
        entries.clear()
        assert len(spd) == 1
