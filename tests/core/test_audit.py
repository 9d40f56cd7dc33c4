"""Tests for the delivery auditor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from audit_oracle import AuditOracle
from repro.core.audit import DeliveryAuditor
from repro.core.encap import ENCAP_MODES, open_packet, seal
from repro.ipsec.replay_window import Verdict
from repro.ipsec.sa import make_sa
from repro.net.message import Message


def fresh(auditor: DeliveryAuditor) -> Message:
    return Message(seq=1, uid=auditor.register_send())


class TestScoring:
    def test_clean_delivery(self):
        auditor = DeliveryAuditor()
        packet = fresh(auditor)
        auditor.note_processed(packet, Verdict.ACCEPT_ADVANCE)
        report = auditor.report()
        assert report.fresh_sent == 1
        assert report.delivered_uids == 1
        assert report.duplicate_deliveries == 0
        assert report.fresh_discarded == 0
        assert report.never_arrived == 0

    def test_duplicate_delivery_is_replay_accepted(self):
        auditor = DeliveryAuditor()
        packet = fresh(auditor)
        auditor.note_processed(packet, Verdict.ACCEPT_ADVANCE)
        auditor.note_processed(packet, Verdict.ACCEPT_IN_WINDOW)  # replayed copy
        report = auditor.report()
        assert report.duplicate_deliveries == 1
        assert report.replays_accepted == 1

    def test_rejected_replay_not_a_fresh_discard(self):
        """A replayed copy discarded after the original was delivered is a
        success, not collateral."""
        auditor = DeliveryAuditor()
        packet = fresh(auditor)
        auditor.note_processed(packet, Verdict.ACCEPT_ADVANCE)
        auditor.note_processed(packet, Verdict.STALE)
        assert auditor.report().fresh_discarded == 0

    def test_fresh_discard(self):
        auditor = DeliveryAuditor()
        packet = fresh(auditor)
        auditor.note_processed(packet, Verdict.STALE)
        assert auditor.report().fresh_discarded == 1

    def test_never_arrived(self):
        auditor = DeliveryAuditor()
        fresh(auditor)
        report = auditor.report()
        assert report.never_arrived == 1
        assert report.fresh_discarded == 0  # loss is out of scope

    def test_integrity_failures_counted(self):
        auditor = DeliveryAuditor()
        packet = fresh(auditor)
        auditor.note_processed(packet, DeliveryAuditor.INTEGRITY_FAIL)
        report = auditor.report()
        assert report.integrity_rejections == 1
        assert report.fresh_discarded == 1

    def test_unknown_packets_tolerated(self):
        auditor = DeliveryAuditor()
        auditor.note_processed(Message(seq=9), Verdict.ACCEPT_ADVANCE)
        assert auditor.unknown_packets == 1
        assert auditor.report().deliveries_total == 0

    def test_many_duplicates_counted_each(self):
        auditor = DeliveryAuditor()
        packet = fresh(auditor)
        for _ in range(4):
            auditor.note_processed(packet, Verdict.ACCEPT_ADVANCE)
        assert auditor.report().duplicate_deliveries == 3

    def test_properties_match_report(self):
        auditor = DeliveryAuditor()
        packet = fresh(auditor)
        auditor.note_processed(packet, Verdict.ACCEPT_ADVANCE)
        auditor.note_processed(packet, Verdict.ACCEPT_ADVANCE)
        assert auditor.replays_accepted == 1
        assert auditor.fresh_discarded == 0

    def test_identical_payload_distinct_uids(self):
        """Two equal-content packets must still be distinguishable."""
        auditor = DeliveryAuditor()
        a = fresh(auditor)
        b = fresh(auditor)
        assert a.uid != b.uid
        auditor.note_processed(a, Verdict.ACCEPT_ADVANCE)
        auditor.note_processed(b, Verdict.ACCEPT_IN_WINDOW)
        report = auditor.report()
        assert report.delivered_uids == 2
        assert report.duplicate_deliveries == 0


class TestUids:
    def test_dense_within_an_auditor(self):
        auditor = DeliveryAuditor()
        uids = [auditor.register_send() for _ in range(5)]
        assert uids == list(range(uids[0], uids[0] + 5))

    def test_unique_across_auditors(self):
        auditors = [DeliveryAuditor() for _ in range(3)]
        uids = [auditor.register_send() for auditor in auditors for _ in range(4)]
        assert len(set(uids)) == len(uids)

    def test_foreign_packet_is_unknown(self):
        """A packet stamped by another auditor (another SA) never aliases
        one of this auditor's uids, even at the same index."""
        ours, theirs = DeliveryAuditor(), DeliveryAuditor()
        fresh(ours)
        foreign = fresh(theirs)
        before = ours.report()
        ours.note_processed(foreign, Verdict.ACCEPT_ADVANCE)
        assert ours.unknown_packets == 1
        assert ours.report() == before

    def test_restamped_copy_scores_as_its_original(self):
        """The uid rides the envelope: a copy with a new outer header (a
        NAT-restamped replay) still counts against its original."""
        auditor = DeliveryAuditor()
        packet = fresh(auditor)
        auditor.note_processed(packet, Verdict.ACCEPT_ADVANCE)
        auditor.note_processed(packet._replace(src="nat:evil"), Verdict.ACCEPT_ADVANCE)
        assert auditor.report().duplicate_deliveries == 1
        assert auditor.unknown_packets == 0

    def test_uid_rides_outside_the_icv(self):
        sa = make_sa("p", "q", seed_or_rng=3, spi=0x77)
        auditor = DeliveryAuditor()
        for encap in ENCAP_MODES:
            uid = auditor.register_send()
            packet = seal(encap, sa, 1, b"x", 0.0, uid, "nat:a")
            assert (packet.uid, packet.src) == (uid, "nat:a")
            assert open_packet(encap, sa, packet) == (1, b"x")
            unstamped = seal(encap, sa, 1, b"x", 0.0, None, "nat:a")
            assert packet._replace(uid=None) == unstamped


# ----------------------------------------------------------------------
# Parity with the set/dict oracle
# ----------------------------------------------------------------------
VERDICTS = [*Verdict, DeliveryAuditor.INTEGRITY_FAIL]

#: ``("send", encap)``: a fresh transmission; ``("process", index,
#: verdict)``: the receiver processes sent packet ``index`` (wrapped; a
#: repeat is a replayed copy); ``("foreign", verdict)``: a packet sent
#: under another auditor arrives; ``("unstamped", verdict)``: a packet
#: with no uid arrives.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.sampled_from(ENCAP_MODES)),
        st.tuples(st.just("process"), st.integers(0, 30), st.sampled_from(VERDICTS)),
        st.tuples(st.just("foreign"), st.sampled_from(VERDICTS)),
        st.tuples(st.just("unstamped"), st.sampled_from(VERDICTS)),
    ),
    max_size=80,
)

SA = make_sa("p", "q", seed_or_rng=5, spi=0x78)


def _send(auditor: DeliveryAuditor, oracle: AuditOracle, encap: str, seq: int):
    uid = auditor.register_send()
    packet = seal(encap, SA, seq, b"m", 0.0, uid)
    oracle.register_send(packet, uid)
    return packet


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_auditor_matches_the_oracle(ops):
    auditor, oracle = DeliveryAuditor(), AuditOracle()
    other, other_oracle = DeliveryAuditor(), AuditOracle()
    sent = []
    for op in ops:
        kind = op[0]
        if kind == "send":
            sent.append(_send(auditor, oracle, op[1], len(sent) + 1))
            continue
        if kind == "process":
            if not sent:
                continue
            packet, verdict = sent[op[1] % len(sent)], op[2]
        elif kind == "foreign":
            packet, verdict = _send(other, other_oracle, "plain", 1), op[1]
        else:
            packet, verdict = Message(seq=1), op[1]
        auditor.note_processed(packet, verdict)
        oracle.note_processed(packet, verdict)
        assert auditor.report() == oracle.report()
        assert auditor.unknown_packets == oracle.unknown_packets
    assert auditor.report() == oracle.report()
    assert other.report() == other_oracle.report()
