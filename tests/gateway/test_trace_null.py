"""NullTraceRecorder guards at gateway scale (PR satellite).

A 50-SA gateway multiplies every per-message trace site by N, so an
untraced run leaking even one record-per-delivery would quietly tax the
whole fleet.  Pin both properties: the untraced run records *nothing*,
and tracing is observation-only — the traced run's convergence reports
match the untraced run's bit for bit.
"""

from __future__ import annotations

from repro.core.convergence import report_metrics
from repro.faults import FaultEnv, GatewayCrash
from repro.gateway import Gateway
from repro.ipsec.costs import PAPER_COSTS
from repro.sim.trace import NULL_TRACE, TraceRecorder


def run_gateway(trace) -> "Gateway":
    gateway = Gateway(n_sas=50, k=50, store_policy="batched", trace=trace)
    GatewayCrash(after_sends=60, down_time=2 * PAPER_COSTS.t_save).apply(
        FaultEnv.of(gateway)
    )
    gateway.start_traffic(count=200)
    gateway.run(until=0.002)
    return gateway


class TestNullTraceAtGatewayScale:
    def test_untraced_50_sa_run_records_nothing_and_matches_traced(self):
        untraced = run_gateway(NULL_TRACE)
        recorder = TraceRecorder()
        traced = run_gateway(recorder)

        assert len(untraced.engine.trace) == 0
        # The traced run saw real per-message volume across all 50 SAs.
        assert recorder.count(kind="send") > 1000
        assert recorder.count(kind="reset") == 50

        untraced_reports = [
            report_metrics(o.report) for o in untraced.score().sa_outcomes
        ]
        traced_reports = [
            report_metrics(o.report) for o in traced.score().sa_outcomes
        ]
        assert untraced_reports == traced_reports
        assert untraced.score().metrics() == traced.score().metrics()
