"""Cross-module integration tests: full scenarios over the whole stack."""

from repro.core.protocol import build_protocol
from repro.ipsec.costs import CostModel
from repro.net.delay import UniformJitterDelay
from repro.net.loss import BernoulliLoss

FAST = CostModel(t_save=100e-6, t_send=4e-6, t_fetch=0.0)


class TestLossyChannels:
    def test_bernoulli_loss_never_causes_duplicates(self):
        harness = build_protocol(loss=BernoulliLoss(0.1), seed=3, costs=FAST)
        harness.sender.start_traffic(count=2000)
        harness.run(until=1.0)
        report = harness.score(check_bounds=False)
        assert report.replays_accepted == 0
        assert report.audit.never_arrived > 100  # loss actually happened
        assert report.fresh_discarded == 0  # loss is not discard

    def test_jittered_nonfifo_channel_discrimination_holds(self):
        harness = build_protocol(
            delay=UniformJitterDelay(0.0, 20e-6),
            fifo_link=False,
            seed=4,
            costs=FAST,
            w=64,
        )
        harness.sender.start_traffic(count=2000)
        harness.run(until=1.0)
        report = harness.score(check_bounds=False)
        assert report.replays_accepted == 0
        # Mild jitter (~5 message slots) stays well inside w=64.
        assert report.fresh_discarded == 0

    def test_loss_plus_reset_stays_replay_free_with_ceiling(self):
        """The regime where SAVE/FETCH has a theoretical hole (E8): the
        ceiling variant is unconditionally safe."""
        harness = build_protocol(
            variant="ceiling",
            loss=BernoulliLoss(0.2),
            seed=5,
            costs=FAST,
            with_adversary=True,
        )
        harness.sender.start_traffic(count=1000)
        harness.engine.call_at(0.002, harness.receiver.reset, 0.0005)

        def replay():
            assert harness.adversary is not None
            harness.adversary.replay_history(rate=1e6)

        harness.receiver.add_resume_listener(replay)
        harness.run(until=1.0)
        assert harness.score(check_bounds=False).replays_accepted == 0


class TestEspIntegration:
    def test_esp_reset_recovery_end_to_end(self):
        harness = build_protocol(encap="esp", costs=FAST)
        harness.sender.start_traffic(count=800)
        harness.engine.call_at(0.001, harness.sender.reset, 0.0003)
        harness.engine.call_at(0.002, harness.receiver.reset, 0.0003)
        harness.run(until=1.0)
        report = harness.score()
        assert report.converged, report.bound_violations
        assert harness.receiver.integrity_failures == 0

    def test_cross_sa_packets_rejected_by_integrity(self):
        """Traffic sealed under one SA pair bounces off another, and B's
        auditor never mistakes A's uids for its own."""
        harness_a = build_protocol(encap="esp", seed=1, costs=FAST, with_adversary=True)
        harness_b = build_protocol(encap="esp", seed=2, costs=FAST)
        harness_a.sender.start_traffic(count=10)
        harness_a.run(until=1.0)
        assert len(harness_a.adversary.recorded) == 10
        before = harness_b.auditor.report()
        # Feed A's packets into B's receiver (same SPI space is unlikely;
        # integrity must reject regardless).
        for packet in harness_a.adversary.recorded:
            harness_b.receiver.on_receive(packet)
        # Direct path: seal under A, offer to B.
        from repro.ipsec.esp import esp_seal

        foreign = esp_seal(harness_a.sa_pair.forward, 1, b"alien")
        harness_b.receiver.on_receive(foreign)
        assert harness_b.receiver.integrity_failures == 11
        assert harness_b.receiver.delivered_total == 0
        assert harness_b.auditor.unknown_packets == 11
        assert harness_b.auditor.report() == before


class TestWindowInSitu:
    def test_receiver_reset_run_delivers_in_order(self):
        harness = build_protocol(seed=9, costs=FAST)
        delivered = []
        harness.receiver.on_deliver = lambda seq, payload: delivered.append(seq)
        harness.sender.start_traffic(count=600)
        harness.engine.call_at(0.001, harness.receiver.reset, 0.0002)
        harness.run(until=1.0)
        report = harness.score()
        assert report.converged
        assert len(delivered) == harness.receiver.delivered_total
        assert delivered == sorted(delivered)


class TestTimedVsApnCrossValidation:
    """The timed receiver and the APN window function agree verdict-for-
    verdict on identical receive sequences."""

    def test_same_accept_decisions(self):
        import random

        from repro.apn.specs import window_update
        from repro.ipsec.replay_window import BitmapReplayWindow

        rng = random.Random(13)
        w = 8
        window = BitmapReplayWindow(w)
        r, wdw = 0, (True,) * w
        seq = 0
        for _ in range(500):
            seq += 1
            probe = max(1, seq - rng.randrange(0, 12))
            timed = window.update(probe).accepted
            apn_accepted, r, wdw = window_update(r, wdw, probe, w)
            assert timed == apn_accepted
            assert r == window.right_edge
