"""Statistics for Monte-Carlo reliability estimates.

Probability of data loss is a Bernoulli proportion over runs; we report it
with Wilson score intervals (well-behaved near 0 and 1, where reliability
estimates live).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist


@dataclass(frozen=True)
class Proportion:
    """A Bernoulli estimate with its confidence interval."""

    successes: int
    trials: int
    estimate: float
    lo: float
    hi: float
    confidence: float

    @property
    def width(self) -> float:
        """Confidence-interval width ``hi - lo``.

        The forecast service's refinement queue orders cached estimates
        by this: the widest interval is the most informative place to
        spend the next batch of background trials.
        """
        return self.hi - self.lo

    @property
    def zero_hit(self) -> bool:
        """True when a positive budget observed no successes at all.

        A (0, upper) interval from ``k = 0`` looks reassuring but mostly
        measures budget inadequacy; callers should surface
        :attr:`rule_of_three_upper` alongside it.
        """
        return self.trials > 0 and self.successes == 0

    @property
    def rule_of_three_upper(self) -> float:
        """'Rule of three' 95% upper bound for a zero-hit estimate.

        With n trials and no successes, p <= 3/n at ~95% confidence —
        the standard budget-adequacy yardstick for rare events.
        """
        if self.trials <= 0:
            return 1.0
        return min(1.0, 3.0 / self.trials)

    def __str__(self) -> str:
        base = (f"{100 * self.estimate:.2f}% "
                f"[{100 * self.lo:.2f}, {100 * self.hi:.2f}] "
                f"({self.successes}/{self.trials})")
        if self.zero_hit:
            base += (f" zero-hit: p<={100 * self.rule_of_three_upper:.3g}%"
                     f" (rule of 3)")
        return base


def _wilson_bounds(p: float, n_eff: float, z: float) -> tuple[float, float]:
    """Wilson score bounds for proportion ``p`` over ``n_eff`` trials.

    ``n_eff`` may be fractional (:func:`wilson_from_rate` passes an
    effective sample size).
    """
    denom = 1.0 + z * z / n_eff
    center = (p + z * z / (2 * n_eff)) / denom
    half = (z / denom) * math.sqrt(
        p * (1 - p) / n_eff + z * z / (4 * n_eff * n_eff))
    return center - half, center + half


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> Proportion:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    z = _normal_quantile(confidence)
    p = successes / trials
    lo, hi = _wilson_bounds(p, trials, z)
    # Clamp to [0, 1] and to the estimate itself: at k = 0 (or k = n) the
    # exact bound coincides with p, and rounding can push it past it by
    # ~1 ulp, yielding lo > estimate (or hi < estimate).
    return Proportion(successes=successes, trials=trials, estimate=p,
                      lo=min(p, max(0.0, lo)),
                      hi=max(p, min(1.0, hi)),
                      confidence=confidence)


def wilson_from_rate(rate: float, n_eff: float,
                     confidence: float = 0.95) -> Proportion:
    """Wilson interval at a *fractional* success rate and effective n.

    For estimates that are not integer hit counts — an interpolated
    surrogate value standing on a grid built from ``n_eff`` runs per
    point — the Wilson score still applies with the rate taken at face
    value.  The reported ``successes``/``trials`` are the nearest
    integers (display only; the bounds use the exact inputs).
    """
    if n_eff <= 0:
        raise ValueError("n_eff must be positive")
    if not 0 <= rate <= 1:
        raise ValueError("rate must be in [0, 1]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    z = _normal_quantile(confidence)
    lo, hi = _wilson_bounds(rate, n_eff, z)
    return Proportion(successes=int(round(rate * n_eff)),
                      trials=int(round(n_eff)), estimate=rate,
                      lo=min(rate, max(0.0, lo)),
                      hi=max(rate, min(1.0, hi)),
                      confidence=confidence)


def empty_proportion(confidence: float = 0.95) -> Proportion:
    """The degenerate estimate for zero completed trials.

    :func:`wilson_interval` requires at least one trial; a Monte-Carlo
    point whose every run failed (``on_error="skip"``) still needs a
    well-formed :class:`Proportion`, and with no evidence the interval
    is the whole unit line.
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    return Proportion(successes=0, trials=0, estimate=0.0,
                      lo=0.0, hi=1.0, confidence=confidence)


def _normal_quantile(confidence: float) -> float:
    """Two-sided standard-normal quantile z: P(|Z| <= z) = ``confidence``.

    ``sqrt(2) * erfinv(confidence)`` to within 1e-13 relative, from the
    standard library instead of ``scipy.special``.
    """
    return NormalDist().inv_cdf(0.5 + confidence / 2)
