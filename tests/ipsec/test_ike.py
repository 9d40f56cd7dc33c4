"""Tests for the simplified IKE handshake."""

from dataclasses import replace

import pytest

from repro.ipsec.crypto import IntegrityError
from repro.ipsec.esp import esp_open, esp_seal
from repro.ipsec.ike import IkeConfig, IkeInitiator, IkeResponder
from repro.net.delay import FixedDelay
from repro.net.link import Link
from repro.sim.engine import Engine


def wire_up(engine, rtt=0.01, costs=None, tamper=lambda m: m):
    """An initiator "a" and a responder "b" over two links; ``tamper``
    rewrites every message on the wire."""
    config = IkeConfig(costs=costs) if costs is not None else IkeConfig()
    responder = IkeResponder(
        engine, "b", "a", send_fn=lambda m: link_ba.send(tamper(m)),
        config=config, seed=2,
    )
    initiator = IkeInitiator(
        engine, "a", "b", send_fn=lambda m: link_ab.send(tamper(m)),
        config=config, seed=1,
    )
    link_ab = Link(engine, "link:a->b", sink=responder.on_receive, delay=FixedDelay(rtt / 2))
    link_ba = Link(engine, "link:b->a", sink=initiator.on_receive, delay=FixedDelay(rtt / 2))
    return initiator, responder


class TestHandshake:
    def test_completes_on_both_sides(self, engine, fast_costs):
        initiator, responder = wire_up(engine, costs=fast_costs)
        initiator.start()
        engine.run()
        assert initiator.result is not None
        assert responder.result is not None

    def test_both_sides_derive_identical_sa_keys(self, engine, fast_costs):
        """Real DH: both peers independently compute the same secrets."""
        initiator, responder = wire_up(engine, costs=fast_costs)
        initiator.start()
        engine.run()
        sa_i = initiator.result.sa_pair
        sa_r = responder.result.sa_pair
        assert sa_i.forward.auth_key == sa_r.forward.auth_key
        assert sa_i.backward.enc_key == sa_r.backward.enc_key

    def test_negotiated_sa_actually_works_for_esp(self, engine, fast_costs):
        """Both peers construct byte-identical SAs (keys *and* SPI are
        derived from the shared DH master), so ESP interoperates."""
        initiator, responder = wire_up(engine, costs=fast_costs)
        initiator.start()
        engine.run()
        tx_sa = initiator.result.sa_pair.forward
        rx_sa = responder.result.sa_pair.forward
        # Identical except each peer's own completion timestamp.
        assert (tx_sa.spi, tx_sa.auth_key, tx_sa.enc_key) == (
            rx_sa.spi,
            rx_sa.auth_key,
            rx_sa.enc_key,
        )
        packet = esp_seal(tx_sa, 1, b"hello")
        assert esp_open(rx_sa, packet) == b"hello"

    def test_message_count_is_nine(self, engine, fast_costs):
        initiator, responder = wire_up(engine, costs=fast_costs)
        initiator.start()
        engine.run()
        total = initiator.result.messages_sent + responder.result.messages_sent
        assert total == 9  # main mode 6 + quick mode 3

    def test_latency_scales_with_rtt(self, fast_costs):
        def handshake_latency(rtt: float) -> float:
            engine = Engine()
            initiator, _ = wire_up(engine, rtt=rtt, costs=fast_costs)
            initiator.start()
            engine.run()
            return initiator.result.latency

        fast = handshake_latency(0.001)
        slow = handshake_latency(0.1)
        assert slow > fast + 0.3  # ~4 extra RTTs of 99 ms

    def test_compute_time_charged(self, engine, fast_costs):
        initiator, responder = wire_up(engine, costs=fast_costs)
        initiator.start()
        engine.run()
        assert initiator.result.compute_time >= 2 * fast_costs.t_dh_exp

    def test_sequential_sessions_get_fresh_generations(self, engine, fast_costs):
        initiator, responder = wire_up(engine, costs=fast_costs)
        initiator.start()
        engine.run()
        first = initiator.result.sa_pair
        initiator.start()
        engine.run()
        second = initiator.result.sa_pair
        assert first.forward.auth_key != second.forward.auth_key
        assert second.forward.generation == first.forward.generation + 1


class TestProtocolErrors:
    def test_bad_proposal_rejected(self, engine, fast_costs):
        config_bad = IkeConfig(costs=fast_costs, proposal="esp-des-md5")
        responder = IkeResponder(
            engine,
            "b",
            "a",
            send_fn=lambda m: link_ba.send(m),
            config=IkeConfig(costs=fast_costs),
            seed=2,
        )
        initiator = IkeInitiator(
            engine, "a", "b", send_fn=lambda m: link_ab.send(m), config=config_bad, seed=1
        )
        link_ab = Link(engine, "l1", sink=responder.on_receive)
        link_ba = Link(engine, "l2", sink=initiator.on_receive)
        initiator.start()
        with pytest.raises(ValueError, match="unacceptable proposal"):
            engine.run()

    def test_stale_messages_ignored(self, engine, fast_costs):
        from repro.ipsec.ike import IkeMessage

        initiator, responder = wire_up(engine, costs=fast_costs)
        initiator.start()
        engine.run()
        # Replay an old step-4 message at the completed initiator.
        initiator.on_receive(
            IkeMessage(session_id=999, step=4, sender="b", body=())
        )
        assert initiator.result is not None  # unchanged, no crash

    @pytest.mark.parametrize(
        "step, who", [(5, "initiator"), (6, "responder")]
    )
    @pytest.mark.parametrize(
        "auth",
        [bytes(32), None, "not bytes"],
        ids=["forged", "missing", "not-bytes"],
    )
    def test_bad_transcript_auth_rejected(self, engine, fast_costs, step, who, auth):
        def forge(message):
            if message.step != step:
                return message
            body = tuple(
                (key, value) for key, value in message.body if key != "auth"
            )
            if auth is not None:
                body += (("auth", auth),)
            return replace(message, body=body)

        initiator, responder = wire_up(engine, costs=fast_costs, tamper=forge)
        initiator.start()
        with pytest.raises(ValueError, match=f"{who} authentication failed"):
            engine.run()
        assert initiator.result is None and responder.result is None
