"""Tests for repro.obs.probe and repro.obs.sampler.

The probe publishes exactly the signals the ROADMAP's ``repro.control``
adaptive controller consumes; the sampler is the only piece that turns
gauges into time series and must never wedge a run.
"""

import pytest

from repro.core.protocol import build_protocol
from repro.net.loss import BernoulliLoss
from repro.obs.hub import MetricsHub
from repro.obs.probe import EventCoreProbe, HealthProbe, SharedStoreProbe
from repro.obs.sampler import DEFAULT_SAMPLE_INTERVAL, Sampler
from repro.sim.engine import Engine
from repro.sim.trace import NULL_TRACE


def observed_harness(**kwargs):
    hub = MetricsHub("probe-test")
    harness = build_protocol(trace=NULL_TRACE, hub=hub, **kwargs)
    return hub, harness


class TestWiring:
    def test_enabled_hub_attaches_probe_and_sampler(self):
        hub, harness = observed_harness()
        assert harness.hub is hub
        assert isinstance(harness.probe, HealthProbe)
        assert isinstance(harness.sampler, Sampler)
        assert harness.probe in harness.sampler.probes

    def test_disabled_run_attaches_nothing(self):
        harness = build_protocol(trace=NULL_TRACE)
        assert harness.hub is None
        assert harness.probe is None
        assert harness.sampler is None

    def test_caller_owned_engine_gets_no_sampler(self):
        # The engine's owner (the gateway) runs one shared sampler; a
        # per-SA build on a borrowed engine must not add its own.
        engine = Engine()
        hub = MetricsHub("shared")
        harness = build_protocol(engine=engine, hub=hub)
        assert harness.probe is not None
        assert harness.sampler is None


class TestProbeSignals:
    def test_loss_ewma_tracks_lossy_link(self):
        hub, harness = observed_harness(loss=BernoulliLoss(0.3), seed=7)
        harness.sender.start_traffic(count=400)
        harness.run(until=1.0)
        loss = hub.ewma("loss_ewma")
        assert loss.observations > 0
        assert 0.05 < loss.value < 0.6
        assert len(hub.series("loss_ewma").samples) > 0

    def test_lossless_run_reports_zero_loss(self):
        hub, harness = observed_harness()
        harness.sender.start_traffic(count=200)
        harness.run(until=1.0)
        assert hub.ewma("loss_ewma").value == 0.0
        assert hub.counter("replay_discards").value == 0

    def test_recovery_latency_observed_per_reset(self):
        hub, harness = observed_harness()
        harness.sender.start_traffic(count=300)
        harness.engine.call_later(
            4e-4, lambda: harness.sender.reset(down_for=2e-4)
        )
        harness.run(until=1.0)
        histogram = hub.histogram("recovery_latency")
        assert histogram.count == 1
        assert hub.counter("resets").value == 1
        # The latency is at least the scheduled down time.
        assert histogram.minimum >= 2e-4
        assert len(hub.series("recovery_latency").samples) == 1

    def test_an_interrupted_recovery_is_a_reset_without_a_latency(self):
        hub, harness = observed_harness()
        receiver = harness.receiver
        fetch = receiver.store.t_fetch
        harness.sender.start_traffic(count=300)
        harness.engine.call_later(4e-4, receiver.reset, 0.0)
        # Halfway through the post-wake FETCH: that recovery never ends,
        # and the probe must not wait on it.
        harness.engine.call_later(4e-4 + fetch / 2, receiver.reset, 2e-4)
        harness.run(until=1.0)
        first, second = receiver.reset_records
        assert first.resume_time is None
        assert hub.counter("resets").value == 2
        latency = second.resume_time - second.reset_time
        assert hub.histogram("recovery_latency").count == 1
        assert hub.series("recovery_latency").samples == [
            (second.resume_time, latency)
        ]

    def test_save_queue_depth_sampled(self):
        hub, harness = observed_harness()
        harness.sender.start_traffic(count=300)
        harness.run(until=1.0)
        samples = hub.series("save_queue_depth").samples
        assert samples, "sampler never snapshotted the queue gauge"
        assert all(value >= 0 for _, value in samples)

    def test_signal_names_registered_eagerly(self):
        # An idle SA still exports its schema: every controller signal
        # name exists before any traffic runs.
        hub, _ = observed_harness()
        exported = hub.as_dict()
        assert "replay_discards" in exported["counters"]
        assert "resets" in exported["counters"]
        assert "loss_ewma" in exported["ewmas"]
        assert "recovery_latency" in exported["histograms"]
        assert "save_queue_depth" in exported["gauges"]
        assert "save_wait" in exported["gauges"]


class TestSamplerLifecycle:
    def test_unhorizoned_run_drains(self):
        # The tick must not re-arm forever: run() with no horizon ends.
        hub, harness = observed_harness()
        harness.sender.start_traffic(count=50)
        harness.run()
        assert harness.engine.pending_events == 0
        assert not harness.sampler.running

    def test_sample_cadence_matches_interval(self):
        engine = Engine()
        hub = MetricsHub("cadence")
        sampler = Sampler(engine, hub, interval=1e-3)
        sampler.start()
        engine.call_later(10.5e-3, lambda: None)  # keep the queue alive
        engine.run(until=10.5e-3)
        pending = hub.series("engine/pending_events").samples
        assert sampler.samples_taken == 10
        assert pending[0][0] == pytest.approx(1e-3)
        assert pending[-1][0] == pytest.approx(10e-3)

    def test_stop_disarms(self):
        engine = Engine()
        sampler = Sampler(engine, MetricsHub("stop"), interval=1e-3)
        sampler.start()
        sampler.stop()
        engine.call_later(5e-3, lambda: None)
        engine.run()
        assert sampler.samples_taken == 0
        assert not sampler.running

    def test_sample_now_while_stopped(self):
        engine = Engine()
        hub = MetricsHub("manual")
        sampler = Sampler(engine, hub, interval=1e-3)
        sampler.sample_now()
        assert sampler.samples_taken == 1
        assert len(hub.series("engine/events_processed").samples) == 1

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            Sampler(Engine(), MetricsHub("bad"), interval=0.0)

    def test_default_interval_is_paper_scaled(self):
        assert DEFAULT_SAMPLE_INTERVAL == pytest.approx(1e-4)


class TestEventCoreProbe:
    def test_publishes_event_core_counters(self):
        engine = Engine()
        hub = MetricsHub("core")
        probe = EventCoreProbe(hub, engine)
        for i in range(200):
            engine.call_later(1e-4 + i * 1e-4, lambda: None)
        engine.run()
        probe.sample(engine.now)
        assert hub.gauge("engine/events_processed").value == 200
        assert hub.gauge("engine/pending_events").value == 0
        assert len(hub.series("engine/events_processed").samples) == 1
        assert sorted(hub.as_dict()["gauges"]) == [
            "engine/events_processed", "engine/pending_events",
        ]


class TestSharedStoreProbe:
    def test_gateway_store_signals(self):
        from repro.gateway import Gateway

        hub = MetricsHub("gw")
        gateway = Gateway(n_sas=2, hub=hub)
        assert gateway.hub is hub
        assert gateway.sampler is not None
        assert isinstance(gateway.sampler.probes[0], SharedStoreProbe)
        assert isinstance(gateway.sampler.probes[1], EventCoreProbe)
        # One shared sampler serves the store and event-core probes plus
        # every SA probe.
        assert len(gateway.sampler.probes) == 4
        for unit in gateway.sas:
            unit.harness.sender.start_traffic(count=100)
        gateway.engine.run(until=1.0)
        assert hub.series("store/backlog").samples
        assert hub.series("store/saves").last_value() > 0
        assert hub.gauge("store/max_save_wait").value >= 0.0
