"""Workload and scenario library (system S17).

* :mod:`~repro.workloads.traffic` — traffic generators that drive a
  sender: constant bit rate, Poisson arrivals, and bursty on/off.
* :mod:`~repro.workloads.scenarios` — named, parameterised end-to-end
  scenarios composed from the protocol harness and the faults of
  :mod:`repro.faults`, each returning one JSON-safe metrics dict; the
  experiment modules are built from these.
"""

from repro.workloads.scenarios import (
    SCENARIOS,
    get_scenario,
    run_dual_reset_scenario,
    run_loss_reset_scenario,
    run_receiver_reset_scenario,
    run_sender_reset_scenario,
)
from repro.workloads.traffic import (
    BurstyTraffic,
    ConstantRateTraffic,
    PoissonTraffic,
    TrafficGenerator,
)

__all__ = [
    "BurstyTraffic",
    "ConstantRateTraffic",
    "PoissonTraffic",
    "SCENARIOS",
    "TrafficGenerator",
    "get_scenario",
    "run_dual_reset_scenario",
    "run_loss_reset_scenario",
    "run_receiver_reset_scenario",
    "run_sender_reset_scenario",
]
