"""Workload and scenario library (system S17).

* :mod:`~repro.workloads.traffic` — :class:`BurstyTraffic`, the on/off
  clock that drives a sender in E6's SAVE-policy comparison.
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
from repro.workloads.traffic import BurstyTraffic

__all__ = [
    "BurstyTraffic",
    "SCENARIOS",
    "get_scenario",
    "run_dual_reset_scenario",
    "run_loss_reset_scenario",
    "run_receiver_reset_scenario",
    "run_sender_reset_scenario",
]
