"""Which fast estimator may answer which config: one table.

The forecast service's cascade answers a config from the cheapest
estimator that admits it: the Markov chain, the window model, then
(after the surrogate grids) the bulk engine.  ``BulkLifetime`` and
``sweep-check`` read the bulk column.  :data:`FIELDS` classifies every
:class:`~repro.config.SystemConfig` field, and a test fails on a field
missing here; :func:`refusals` adds each estimator's limits on the
fields it takes at any value.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from ..redundancy.composite import is_threshold_scheme
from .analytic import mean_hazard, mean_window

MARKOV, ANALYTIC, BULK = "markov", "analytic", "bulk"

#: The fast estimators, cheapest first.
ESTIMATORS: tuple[str, ...] = (MARKOV, ANALYTIC, BULK)

#: First-order cutoff: the window model drops O((hW)^2) terms, so it is
#: only trusted while the per-window hazard mass stays small.  0.05 keeps
#: the neglected terms ~an order of magnitude under typical Monte-Carlo
#: CI half-widths; configs outside fall through to simulation tiers.
MAX_HAZARD_WINDOW = 0.05


@dataclass(frozen=True)
class Pin:
    """The value ``estimators`` need a field at; ``reason`` (formatted
    with the config's value) says why they refuse any other."""

    value: object
    estimators: tuple[str, ...]
    reason: str


_CLOSED_FORMS = (MARKOV, ANALYTIC)
_FLAT = "non-flat topology (correlated domain exposure)"

#: Every config field: ``None`` where each fast estimator takes any value.
FIELDS: dict[str, Pin | None] = {
    "total_user_bytes": None,
    "group_user_bytes": None,
    "scheme": None,                 # limited to plain m-of-n schemes
    "vintage": None,                # its hazard: limited for two columns
    "detection_latency": None,
    "recovery_bandwidth_bps": None,
    "target_utilization": None,
    "spare_reserve_fraction": None,
    "use_farm": Pin(True, (MARKOV,), (
        "traditional recovery (a dead disk's rebuilds queue on one spare; "
        "the chain has no deterministic serial repair)")),
    "use_smart": Pin(False, ESTIMATORS, (
        "SMART steering (windows are no longer detection + rebuild)")),
    # Read only while use_smart is on, which every estimator pins off.
    "smart_detection_probability": None,
    "smart_warning_horizon": None,
    "smart_false_positive_rate": None,
    "replacement_threshold": Pin(None, ESTIMATORS, (
        "replacement batches (population age is not a single cohort)")),
    "duration": None,
    "placement": Pin("random", ESTIMATORS, (
        "placement={!r} (only uniform random placement is modelled)")),
    "workload_peak_load": Pin(0.0, ESTIMATORS, (
        "diurnal workload (recovery bandwidth varies over the day)")),
    "racks": Pin(1, _CLOSED_FORMS, _FLAT),
    "machines_per_rack": Pin(1, _CLOSED_FORMS, _FLAT),
    "max_chunks_per_domain": Pin(None, _CLOSED_FORMS, (
        "domain placement caps (placement is no longer uniform)")),
    "recovery_threshold": Pin(1, ESTIMATORS, (
        "lazy recovery (recovery_threshold > 1): repair onset depends on "
        "the group's failure history, not on each failure's window")),
    "repair_bandwidth_fraction": None,
}


def hazard_window(cfg: SystemConfig) -> float:
    """Mean hazard times mean window: the window model's expansion
    variable, and its relative truncation error."""
    return mean_hazard(cfg) * mean_window(cfg)


def refusals(cfg: SystemConfig) -> dict[str, tuple[str, ...]]:
    """Why each fast estimator may not answer ``cfg`` (empty: it may).

    One pass over :data:`FIELDS`, then the limits: a plain m-of-n scheme
    for every estimator, one hazard rate period for the chain, and a
    hazard-window product of at most :data:`MAX_HAZARD_WINDOW` for the
    window model.
    """
    reasons: dict[str, list[str]] = {name: [] for name in ESTIMATORS}

    def refuse(estimators: tuple[str, ...], why: str) -> None:
        for estimator in estimators:
            if why not in reasons[estimator]:
                reasons[estimator].append(why)

    for name, pin in FIELDS.items():
        if pin is None:
            continue
        value = getattr(cfg, name)
        if value != pin.value:
            refuse(pin.estimators, pin.reason.format(value))
    if not is_threshold_scheme(cfg.scheme):
        refuse(ESTIMATORS, "set-based survival schemes (need a plain "
                           "m-of-n loss count)")
    periods = len(cfg.vintage.failure_model.periods)
    if periods != 1:
        refuse((MARKOV,), f"bathtub hazard with {periods} rate periods "
                          f"(the chain needs one constant rate)")
    hw = hazard_window(cfg)
    if hw > MAX_HAZARD_WINDOW:
        refuse((ANALYTIC,), f"hazard-window product {hw:.3g} exceeds the "
                            f"first-order envelope ({MAX_HAZARD_WINDOW:g})")
    return {name: tuple(why) for name, why in reasons.items()}
