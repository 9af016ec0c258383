"""Availability workloads: lazy recovery, repair scheduling, nines.

The paper measures durability only; this package adds the other half of
a fleet's story — how long groups sit degraded, what user reads cost
while they are, and how repair scheduling trades bandwidth against risk:

* :mod:`repro.availability.queue` — the most-at-risk-first repair
  priority queue the DES uses to order lazy-recovery releases
  (by surviving redundancy, then window age);
* :mod:`repro.availability.luby` — Luby's steady-state repair-demand
  bound, the feasibility rail shared by the DES and the bulk engine
  (construction-time rejection of rate-limited configs that cannot keep
  up) and the forecast service (HTTP 422);
* :mod:`repro.availability.metrics` — availability fractions, "nines",
  and degraded-read cost derived from the per-group unavailability
  spans the engine accounts on
  :class:`~repro.reliability.simulation.RecoveryStats`
  and the ``repro_group_unavailability_seconds`` span tracker.

The policy knobs live on :class:`~repro.config.SystemConfig`
(``recovery_threshold``, ``repair_bandwidth_fraction``); their defaults
keep the DES bit-identical to the pre-policy golden pins —
asserted by ``tests/test_availability.py``.  Semantics are documented
in docs/AVAILABILITY.md.
"""

from .luby import (REPAIR_WORK_FACTOR, InfeasibleConfig, check_feasible,
                   repair_utilization)
from .metrics import (availability_fraction, availability_nines,
                      degraded_read_cost, unavailability_fraction)
from .queue import RepairPriority, RepairPriorityQueue

__all__ = [
    "InfeasibleConfig",
    "REPAIR_WORK_FACTOR",
    "RepairPriority",
    "RepairPriorityQueue",
    "availability_fraction",
    "availability_nines",
    "check_feasible",
    "degraded_read_cost",
    "repair_utilization",
    "unavailability_fraction",
]
