"""Luby's steady-state repair-demand bound (the feasibility rail).

Failures arrive at ``n_disks * mean_hazard`` and each failed disk must
be re-replicated from its surviving peers, so the recovery *work* is at
least :data:`REPAIR_WORK_FACTOR` times the lost bytes (read + write —
the Luby argument's constant for mirrored/small-m codes).  When the
resulting utilization of the recovery lane reaches 1, the rebuild queue
grows without bound and no lifetime estimate is meaningful.

This module is the single home of the rail; it moved here from
:mod:`repro.service.cascade` (which re-exports it for compatibility) so
the engines can consult it without importing the HTTP service.  Both
engines, the DES and the bulk engine, enforce it at construction time
whenever the rate-limited repair lane (``repair_bandwidth_fraction``)
is active; the forecast service keeps rejecting infeasible configs
with HTTP 422 on every query, rate-limited or not.
"""

from __future__ import annotations

from ..config import SystemConfig

#: Redundancy overhead factor in the repair-demand rail: every lost
#: block is rebuilt by reading its surviving peers, so the recovery
#: work is at least twice the lost bytes (read + write).
REPAIR_WORK_FACTOR = 2.0


class InfeasibleConfig(Exception):
    """A config whose repair demand outruns its recovery bandwidth."""


def repair_utilization(cfg: SystemConfig) -> float:
    """Steady-state fraction of recovery bandwidth repair demand uses.

    Failures arrive at ``n_disks * mean_hazard`` and each costs one disk
    rebuild spread over the farm; utilization ≥ 1 means the repair queue
    grows without bound and *no* lifetime estimate is meaningful — the
    per-disk form reduces to ``factor * hazard * disk_rebuild_seconds``.
    """
    # Lazy import: repro.reliability may itself be mid-import when an
    # engine module pulls in this rail.
    from ..reliability import analytic
    return REPAIR_WORK_FACTOR * analytic.mean_hazard(cfg) \
        * cfg.disk_rebuild_seconds


def check_feasible(cfg: SystemConfig) -> None:
    """Raise :class:`InfeasibleConfig` when repair cannot keep up."""
    util = repair_utilization(cfg)
    if util >= 1.0:
        raise InfeasibleConfig(
            f"repair utilization {util:.3g} >= 1: failure inflow "
            f"exceeds recovery bandwidth, the rebuild queue diverges "
            f"and P(loss) -> 1; add bandwidth or redundancy instead "
            f"of forecasting this configuration")


def check_repair_lane(cfg: SystemConfig) -> None:
    """Engine-side gate: reject an infeasible *rate-limited* config.

    Only active when ``repair_bandwidth_fraction`` is set — the default
    engines accept any config (reliability sweeps deliberately visit
    overloaded regimes), but a config that *asks* for a capped repair
    lane too narrow for its own failure inflow is a modelling error,
    rejected consistently here and by the service's 422 rail.
    """
    if cfg.repair_bandwidth_fraction is None:
        return
    check_feasible(cfg)
