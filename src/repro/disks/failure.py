"""Bathtub (piecewise-constant hazard) disk failure model.

The paper (Table 1, following Elerath and the IDEMA R2-98 standard) rejects
the flat-MTBF assumption: drives fail at a high rate when young ("infant
mortality") and the rate decays toward a steady state as they age.  Failure
rates are quoted the way the industry quotes them — percent of the installed
population failing per 1000 power-on hours — as a step function of drive age.

This module turns that schedule into a proper hazard function and provides
exact inverse-CDF sampling of failure ages, vectorized over whole batches of
disks.  The sampler supports conditioning on current age (a disk that has
survived to age ``a`` draws from the conditional distribution), which is what
makes batch replacement and the cohort effect (paper §3.6) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..units import HOUR, MONTH


@dataclass(frozen=True)
class RatePeriod:
    """One row of Table 1: a drive-age interval and its failure rate."""

    start_months: float
    end_months: float           # inf for the final period
    pct_per_1000h: float        # percent of population per 1000 hours

    @property
    def hazard_per_second(self) -> float:
        return self.pct_per_1000h / 100.0 / (1000.0 * HOUR)


#: Table 1 of the paper (rates reconstructed per DESIGN.md §1): infant
#: mortality of 0.5%/1000 h decaying to 0.2%/1000 h steady state.
ELERATH_TABLE1: tuple[RatePeriod, ...] = (
    RatePeriod(0.0, 3.0, 0.50),
    RatePeriod(3.0, 6.0, 0.35),
    RatePeriod(6.0, 12.0, 0.25),
    RatePeriod(12.0, float("inf"), 0.20),
)


class BathtubFailureModel:
    """Piecewise-constant hazard over drive age, with exact sampling.

    Parameters
    ----------
    periods:
        Age intervals with rates; must start at 0, be contiguous, and end
        with an unbounded period.
    rate_multiplier:
        Scales every rate (Figure 8(b) uses 2.0 for "disks with a failure
        rate twice that listed in Table 1").
    """

    def __init__(self, periods: tuple[RatePeriod, ...] = ELERATH_TABLE1,
                 rate_multiplier: float = 1.0) -> None:
        if not periods:
            raise ValueError("at least one rate period required")
        if periods[0].start_months != 0.0:
            raise ValueError("first period must start at age 0")
        for a, b in zip(periods, periods[1:]):
            if a.end_months != b.start_months:
                raise ValueError("rate periods must be contiguous")
        if periods[-1].end_months != float("inf"):
            raise ValueError("last period must be unbounded")
        if rate_multiplier <= 0:
            raise ValueError("rate_multiplier must be positive")
        self.periods = tuple(periods)
        self.rate_multiplier = float(rate_multiplier)

        # Precompute boundaries (seconds) and per-second hazards.
        self._bounds = np.array(
            [p.start_months * MONTH for p in periods] + [np.inf])
        self._rates = np.array(
            [p.hazard_per_second * rate_multiplier for p in periods])
        # Cumulative hazard at each boundary start.
        seg = np.diff(self._bounds[:-1])
        self._cum = np.concatenate([[0.0], np.cumsum(self._rates[:-1] * seg)])
        # Memo of cumulative_hazard_at, keyed by horizon.
        self._horizon_hazards: dict[float, float] = {}

    def scaled(self, multiplier: float) -> "BathtubFailureModel":
        """A copy of this model with all rates multiplied."""
        return BathtubFailureModel(
            self.periods, self.rate_multiplier * multiplier)

    # Value semantics: two models with the same rate schedule are the
    # same model.  Needed so configs round-trip through the canonical
    # serialization (repro.config.config_from_dict) as *equal* objects,
    # and kept consistent with hashing since DiskVintage (a frozen,
    # hashable dataclass) embeds this as a field.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BathtubFailureModel):
            return NotImplemented
        return (self.periods == other.periods
                and self.rate_multiplier == other.rate_multiplier)

    def __hash__(self) -> int:
        from ..sim.rng import stable_hash64
        return stable_hash64(self.periods, self.rate_multiplier)

    # ------------------------------------------------------------------ #
    def hazard(self, age: np.ndarray | float) -> np.ndarray:
        """Instantaneous failure rate (per second) at drive age (seconds)."""
        age = np.asarray(age, dtype=float)
        if np.any(age < 0):
            raise ValueError("age must be non-negative")
        idx = np.searchsorted(self._bounds, age, side="right") - 1
        idx = np.clip(idx, 0, len(self._rates) - 1)
        return self._rates[idx]

    def cumulative_hazard(self, age: np.ndarray | float) -> np.ndarray:
        """H(age) = integral of the hazard from 0 to ``age``."""
        age = np.asarray(age, dtype=float)
        if np.any(age < 0):
            raise ValueError("age must be non-negative")
        idx = np.searchsorted(self._bounds, age, side="right") - 1
        idx = np.clip(idx, 0, len(self._rates) - 1)
        return self._cum[idx] + self._rates[idx] * (age - self._bounds[idx])

    def cumulative_hazard_at(self, horizon: float) -> float:
        """H(horizon) as a float, memoized per horizon.

        The window model, the envelope, the feasibility rail and the
        bulk engine's uniform bound all read H(duration) of one config;
        each scalar :meth:`cumulative_hazard` call costs ~20 µs of NumPy
        overhead, so the model evaluates it once per horizon.  The fill
        is idempotent, so callers racing on it at worst compute the same
        value twice.
        """
        h = self._horizon_hazards.get(horizon)
        if h is None:
            h = float(self.cumulative_hazard(horizon))
            self._horizon_hazards[horizon] = h
        return h

    def survival(self, age: np.ndarray | float) -> np.ndarray:
        """P(drive survives past ``age``)."""
        return np.exp(-self.cumulative_hazard(age))

    def _invert_cumulative(self, target: np.ndarray) -> np.ndarray:
        """Age a such that H(a) == target (vectorized exact inverse).

        Every target is non-negative and ``_cum`` starts at 0, so each
        lands in a segment of the schedule: the index needs no clip.
        """
        idx = np.searchsorted(self._cum, target, side="right")
        idx -= 1
        return self._bounds[idx] + (target - self._cum[idx]) / self._rates[idx]

    def sample_failure_age(self, rng: np.random.Generator, size: int
                           ) -> np.ndarray:
        """Draw failure *ages* for ``size`` new drives.

        Inverse-CDF sampling: each age solves ``H(age) = -ln(1 - U)``
        for a uniform ``U`` on ``[0, 1)``.  Every caller deploys age-0
        drives (the DES's initial fleet, its spares and replacement
        batches, and Table 1's cohort), so no residual-life draw is
        needed.
        """
        u = rng.random(size)
        return self._invert_cumulative(-np.log1p(-u))

    def _failure_uniform_bound(self, horizon: float) -> float:
        """A uniform above which no new drive fails by ``horizon``.

        :meth:`sample_failure_age` maps its uniform ``u`` to the age
        solving ``H(age) = -log1p(-u)``, which is monotone in ``u``, so
        ``u* = 1 - exp(-H(horizon))`` splits failing from surviving
        drives.  The bound is ``u*`` widened by a relative 1e-6: the
        rounding in the inversion is ~1e-16 relative, so no ``u`` above
        the bound can round to an age at or below ``horizon``.
        """
        return -math.expm1(-self.cumulative_hazard_at(horizon)) \
            * (1.0 + 1e-6)

    def sample_failed_within(self, rng: np.random.Generator, size: int,
                             horizon: float
                             ) -> tuple[np.ndarray, np.ndarray]:
        """The new drives that fail by ``horizon``, and their ages.

        Draws the same ``size`` uniforms as :meth:`sample_failure_age`
        and returns exactly ``ids = flatnonzero(ages <= horizon)`` and
        ``ages[ids]`` for the ages that call would give, but inverts the
        hazard only for the drives whose uniform is at most
        :meth:`_failure_uniform_bound`.  Each candidate's age is computed
        by the same elementwise arithmetic, and the ``age <= horizon``
        test is re-applied to it.
        """
        u = rng.random(size)
        cand = np.flatnonzero(u <= self._failure_uniform_bound(horizon))
        target = u[cand]                    # -log1p(-u), in place
        np.negative(target, out=target)
        np.log1p(target, out=target)
        np.negative(target, out=target)
        ages = self._invert_cumulative(target)
        keep = ages <= horizon
        if keep.all():
            return cand, ages
        return cand[keep], ages[keep]

    def mean_rate_per_year(self, years: float = 6.0) -> float:
        """Average fraction of a cohort failing per year over ``years``.

        A convenience for sanity checks: with Table 1 this is ~2%/yr, giving
        the paper's "about 10% of the disks fail during the first six years".
        """
        from ..units import YEAR
        return float(1.0 - self.survival(years * YEAR)) / years
