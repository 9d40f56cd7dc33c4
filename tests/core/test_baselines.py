"""Tests for the IETF rekey baseline."""

import pytest

from repro.core.baselines import RekeySimulation, savefetch_recovery_outcome
from repro.ipsec.costs import CostModel

FAST = CostModel(
    t_save=100e-6,
    t_send=4e-6,
    t_fetch=100e-6,
    t_dh_exp=1e-3,
    t_prf=10e-6,
    t_sig=0.2e-3,
)


class TestRekeySimulation:
    def test_single_sa_renegotiated(self):
        outcome = RekeySimulation(n_sas=1, rtt=0.01, costs=FAST).run()
        assert outcome.n_sas == 1
        assert outcome.messages_exchanged == 9
        assert len(outcome.sa_pairs) == 1
        assert outcome.renegotiation_time > 4 * 0.01  # at least ~4.5 RTTs

    def test_sequential_sas_scale_linearly(self):
        one = RekeySimulation(n_sas=1, rtt=0.01, costs=FAST).run()
        three = RekeySimulation(n_sas=3, rtt=0.01, costs=FAST).run()
        assert three.messages_exchanged == 27
        assert three.renegotiation_time == pytest.approx(
            3 * one.renegotiation_time, rel=0.05
        )

    def test_detection_delay_added(self):
        outcome = RekeySimulation(
            n_sas=1, rtt=0.01, detection_delay=0.5, costs=FAST
        ).run()
        assert outcome.total_recovery_time == pytest.approx(
            outcome.renegotiation_time + 0.5
        )

    def test_distinct_pairs_distinct_keys(self):
        outcome = RekeySimulation(n_sas=2, rtt=0.001, costs=FAST).run()
        a, b = outcome.sa_pairs
        assert a.forward.auth_key != b.forward.auth_key

    def test_rtt_dominates_at_high_latency(self):
        # 8 one-way transits before the initiator finishes = 4 RTTs.
        fast = RekeySimulation(n_sas=1, rtt=0.001, costs=FAST).run()
        slow = RekeySimulation(n_sas=1, rtt=0.1, costs=FAST).run()
        assert slow.renegotiation_time - fast.renegotiation_time == pytest.approx(
            4 * (0.1 - 0.001), rel=0.01
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RekeySimulation(n_sas=0)

    def test_n_sas_is_not_truncated(self):
        with pytest.raises(TypeError, match="n_sas must be int"):
            RekeySimulation(n_sas=2.5)


class TestSaveFetchOutcome:
    def test_n_sas_is_not_truncated(self):
        with pytest.raises(TypeError, match="n_sas must be int"):
            savefetch_recovery_outcome(n_sas=2.5)

    def test_recovery_is_local_io_only(self):
        outcome = savefetch_recovery_outcome(n_sas=1, costs=FAST)
        assert outcome.messages_exchanged == 0
        assert outcome.recovery_time == pytest.approx(200e-6)

    def test_scales_with_sas_but_stays_tiny(self):
        outcome = savefetch_recovery_outcome(n_sas=64, costs=FAST)
        rekey = RekeySimulation(n_sas=64, rtt=0.001, costs=FAST).run()
        assert outcome.recovery_time < rekey.total_recovery_time / 10

    def test_paper_motivating_comparison(self):
        """The headline: orders of magnitude, growing with SA count."""
        rekey = RekeySimulation(n_sas=8, rtt=0.01, costs=FAST).run()
        savefetch = savefetch_recovery_outcome(n_sas=8, costs=FAST)
        assert rekey.total_recovery_time / savefetch.recovery_time > 100
