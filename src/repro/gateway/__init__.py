"""Multi-SA security gateway: correlated resets over a shared store.

The paper proves convergence for one sender-receiver pair per reset;
its deployment unit is a gateway terminating N SAs, where one crash
resets every SA at the same instant and recovery contends for one
persistent device.  This package multiplexes N pairs inside a single
deterministic engine run:

* :mod:`~repro.gateway.store` — :class:`SharedStore` /
  :class:`SharedStoreClient`: one FIFO persistence device with the
  paper's cost model and ``serial`` / ``batched`` / ``write_ahead``
  policies; the post-crash FETCH storm queues, it is not free.
* :mod:`~repro.gateway.core` — :class:`Gateway` / :class:`SAUnit`: N
  SAs from ``build_protocol`` on one engine, SA churn, the correlated
  crash path.
* :mod:`~repro.gateway.report` — :class:`GatewayReport`, the per-SA
  convergence reports flattened into one fleet-compatible record.

The correlated faults — :class:`~repro.faults.GatewayCrash`,
:class:`~repro.faults.RollingRestart` and :class:`~repro.faults.SAChurn`
— are kinds of the one fault algebra in :mod:`repro.faults`, armed
against ``FaultEnv.of(gateway)``.

Quickstart::

    from repro.faults import FaultEnv, GatewayCrash
    from repro.gateway import Gateway

    gw = Gateway(n_sas=16, store_policy="batched")
    GatewayCrash(after_sends=500).apply(FaultEnv.of(gw))
    gw.start_traffic(count=1200)
    gw.run(until=0.1)
    print(gw.score().summary())

or from the command line: ``python -m repro gateway --sas 16``.
"""

from repro.gateway.core import GATEWAY_SIDES, Gateway, SAUnit
from repro.gateway.report import GatewayReport, SAOutcome
from repro.gateway.store import (
    STORE_POLICIES,
    WAL_APPEND_FRACTION,
    WAL_SCAN_FACTOR,
    SharedStore,
    SharedStoreClient,
    safe_save_interval,
)

__all__ = [
    "GATEWAY_SIDES",
    "Gateway",
    "GatewayReport",
    "SAOutcome",
    "SAUnit",
    "STORE_POLICIES",
    "SharedStore",
    "SharedStoreClient",
    "WAL_APPEND_FRACTION",
    "WAL_SCAN_FACTOR",
    "safe_save_interval",
]
