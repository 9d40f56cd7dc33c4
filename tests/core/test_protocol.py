"""Tests for the one-call protocol harness."""

import gc

import pytest

from repro.core.ceiling import CeilingReceiver, CeilingSender
from repro.core.protocol import build_protocol
from repro.core.receiver import SaveFetchReceiver, UnprotectedReceiver
from repro.core.sender import SaveFetchSender, UnprotectedSender
from repro.net.message import Message
from repro.sim.trace import NULL_TRACE


class TestVariants:
    def test_protected_default(self):
        harness = build_protocol()
        assert isinstance(harness.sender, SaveFetchSender)
        assert isinstance(harness.receiver, SaveFetchReceiver)

    def test_unprotected(self):
        harness = build_protocol(protected=False)
        assert isinstance(harness.sender, UnprotectedSender)
        assert isinstance(harness.receiver, UnprotectedReceiver)

    def test_ceiling_variant(self):
        harness = build_protocol(variant="ceiling")
        assert isinstance(harness.sender, CeilingSender)
        assert isinstance(harness.receiver, CeilingReceiver)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            build_protocol(variant="quantum")

    def test_non_int_w_and_k_rejected(self):
        # Not truncated: k_q=0.5 would run with K=0, w=64.7 with w=64.
        with pytest.raises(TypeError, match="k must be int"):
            build_protocol(k_q=0.5)
        with pytest.raises(TypeError, match="k must be int"):
            build_protocol(variant="ceiling", k_p=25.0)
        with pytest.raises(TypeError, match="w must be int"):
            build_protocol(w=64.7)
        with pytest.raises(TypeError, match="w must be int"):
            build_protocol(protected=False, w=True)

    def test_non_int_leap_factor_and_reorder_degree_rejected(self):
        # Not truncated: leap 2.5 would run with 2, degree 2.7 with 2.
        with pytest.raises(TypeError, match="leap_factor must be int"):
            build_protocol(leap_factor=2.5)
        with pytest.raises(TypeError, match="degree must be int"):
            build_protocol(reorder_degree=2.7, reorder_probability=0.5)

    def test_zero_leap_factor_and_reorder_degree_build(self):
        harness = build_protocol(leap_factor=0)
        assert harness.sender.leap_factor == 0
        assert harness.receiver.leap_factor == 0
        assert build_protocol(reorder_degree=0,
                              reorder_probability=0.5).reorder_stage is None

    def test_adversary_optional(self):
        assert build_protocol().adversary is None
        assert build_protocol(with_adversary=True).adversary is not None

    def test_reorder_stage_wiring(self):
        harness = build_protocol(reorder_degree=4, reorder_probability=0.5)
        assert harness.reorder_stage is not None
        assert harness.pipe is harness.reorder_stage

    def test_esp_mode_builds_sa(self):
        harness = build_protocol(encap="esp")
        assert harness.sa_pair is not None
        assert harness.sender.sa is harness.sa_pair.forward


class TestEndToEnd:
    def test_clean_run_delivers_everything(self):
        harness = build_protocol()
        harness.sender.start_traffic(count=500)
        harness.run(until=1.0)
        report = harness.score()
        assert report.audit.fresh_sent == 500
        assert report.audit.delivered_uids == 500
        assert report.converged

    def test_esp_run_delivers_everything(self):
        harness = build_protocol(encap="esp")
        harness.sender.start_traffic(count=100)
        harness.run(until=1.0)
        report = harness.score()
        assert report.audit.delivered_uids == 100
        assert harness.receiver.integrity_failures == 0

    def test_ah_run_delivers_everything(self):
        harness = build_protocol(encap="ah")
        harness.sender.start_traffic(count=100)
        harness.run(until=1.0)
        assert harness.score().audit.delivered_uids == 100

    def test_deterministic_given_seed(self):
        def run_once() -> tuple:
            harness = build_protocol(seed=5, loss=None)
            harness.sender.start_traffic(count=200)
            harness.engine.call_at(0.0003, harness.sender.reset, 0.0001)
            harness.run(until=1.0)
            report = harness.score()
            return (
                report.audit.delivered_uids,
                tuple(report.gaps_sender),
                tuple(report.lost_seqnums_per_reset),
            )

        assert run_once() == run_once()

    def test_sender_reset_converges(self):
        harness = build_protocol(k_p=25, k_q=25)
        harness.sender.start_traffic(count=500)
        harness.engine.call_at(0.0006, harness.sender.reset, 0.0002)
        harness.run(until=1.0)
        report = harness.score()
        assert report.converged, report.bound_violations
        assert report.sender_resets == 1

    def test_metrics_snapshot(self):
        harness = build_protocol(with_adversary=True)
        harness.sender.start_traffic(count=300)
        harness.engine.call_at(0.0005, harness.sender.reset, 0.0001)
        harness.run(until=1.0)
        audit = harness.auditor.report()
        assert harness.sender.sent_total == harness.link.offered
        assert harness.receiver.delivered_total == audit.delivered_uids
        assert audit.duplicate_deliveries == 0
        [reset] = harness.sender.reset_records
        assert reset.gap is not None and reset.gap <= 50

    def test_receiver_reset_converges(self):
        harness = build_protocol(k_p=25, k_q=25)
        harness.sender.start_traffic(count=500)
        harness.engine.call_at(0.0006, harness.receiver.reset, 0.0002)
        harness.run(until=1.0)
        report = harness.score()
        assert report.converged, report.bound_violations
        assert report.receiver_resets == 1
        assert report.time_to_converge  # traffic resumed after the wake

    def test_drained_session_retains_no_message(self):
        # The audit uid rides the packet, so once a session has drained
        # nothing keeps its packets alive: scoring needs no packet.
        def held() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is Message)

        before = held()
        harness = build_protocol(trace=NULL_TRACE)
        harness.sender.start_traffic(count=10_000)
        harness.run()
        assert harness.engine.pending_events == 0
        assert harness.score().audit.delivered_uids == 10_000
        assert held() - before == 0
