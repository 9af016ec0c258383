"""Statistics for Monte-Carlo reliability estimates.

Probability of data loss is a Bernoulli proportion over runs; we report it
with Wilson score intervals (well-behaved near 0 and 1, where reliability
estimates live).

The weighted half of this module supports the rare-event estimator in
:mod:`repro.reliability.rare`: importance-sampled runs carry a
likelihood-ratio weight, and :class:`WeightedAggregate` is the one
sanctioned place those weights are combined (lint rule RPR012 rejects
ad-hoc weight arithmetic in experiment code).  Its sums are *exact*
(Shewchuk partials), so they do not depend on the order the runs are
added in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


# --------------------------------------------------------------------- #
# Weighted (importance-sampled) estimates
# --------------------------------------------------------------------- #
class ExactSum:
    """Error-free float accumulator (Shewchuk partials, as in math.fsum).

    The partials list represents the running sum *exactly*, so adding the
    same multiset of values in any order yields the same :attr:`value`
    to the last bit.
    """

    __slots__ = ("_partials",)

    def __init__(self, value: float = 0.0) -> None:
        self._partials: list[float] = [float(value)] if value else []

    def add(self, x: float) -> None:
        """Accumulate ``x`` exactly (two-sum cascade over the partials)."""
        x = float(x)
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    @property
    def value(self) -> float:
        """The correctly-rounded float value of the exact sum."""
        return math.fsum(self._partials)

    def __repr__(self) -> str:
        return f"ExactSum({self.value!r})"


@dataclass
class WeightedAggregate:
    """Streaming reduction of weighted Bernoulli outcomes.

    One entry per Monte-Carlo run: a strictly positive likelihood-ratio
    weight ``w`` and a hit indicator ``x`` (data loss).  All four sums are
    :class:`ExactSum`, so :meth:`add` commutes exactly and any order of
    the runs reproduces the same aggregate bit for bit (the Hypothesis
    suite fuzzes this).

    With every weight equal to 1 the unnormalized estimate degenerates to
    the naive proportion ``hits / n`` exactly and ``ess == n``.
    """

    n: int = 0
    hits: int = 0
    w_sum: ExactSum = field(default_factory=ExactSum)
    w_sq_sum: ExactSum = field(default_factory=ExactSum)
    wx_sum: ExactSum = field(default_factory=ExactSum)
    wx_sq_sum: ExactSum = field(default_factory=ExactSum)

    def add(self, weight: float, hit: bool) -> None:
        """Fold one run's (weight, loss-indicator) pair in.

        A weight of exactly 0.0 is accepted: under extreme tilt the
        likelihood ratio ``exp(log_weight)`` underflows, and such a run
        legitimately carries (vanishingly little) evidence — it counts as
        a trial but contributes nothing to the weighted sums.  Negative
        or non-finite weights are still programming errors.
        """
        w = float(weight)
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(
                f"likelihood-ratio weights must be finite and "
                f"non-negative, got {weight!r}")
        self.n += 1
        self.w_sum.add(w)
        self.w_sq_sum.add(w * w)
        if hit:
            self.hits += 1
            self.wx_sum.add(w)
            self.wx_sq_sum.add(w * w)

    @property
    def estimate(self) -> float:
        """Unbiased (unnormalized) IS estimate: (1/n) sum w_i x_i."""
        if self.n == 0:
            return 0.0
        return self.wx_sum.value / self.n

    @property
    def ess(self) -> float:
        """Kish effective sample size: (sum w)^2 / sum w^2, in [0, n].

        0.0 both for the empty aggregate and for an all-zero-weight
        batch — either way the weighted estimate rests on no effective
        samples, and interval builders degrade to the uninformative
        whole-line answer instead of dividing by zero.
        """
        sw_sq = self.w_sq_sum.value
        if self.n == 0 or sw_sq == 0.0:
            return 0.0
        sw = self.w_sum.value
        return sw * sw / sw_sq


def weighted_clt_interval(agg: WeightedAggregate,
                          confidence: float = 0.95) -> Proportion:
    """CLT interval for the unbiased IS estimate (1/n) sum w_i x_i.

    The standard error comes from the sample variance of the per-run
    products ``y_i = w_i x_i``; with all weights 1 this is the usual
    normal-approximation binomial interval.  ``successes`` counts *hit
    runs* (so :attr:`Proportion.zero_hit` keeps its meaning under IS).
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if agg.n == 0:
        return empty_proportion(confidence)
    if agg.w_sum.value == 0.0:
        # Every weight underflowed: a zero sample variance here would
        # claim certainty the data cannot support, so keep the trial
        # counts but return the uninformative whole-line interval.
        return Proportion(successes=agg.hits, trials=agg.n, estimate=0.0,
                          lo=0.0, hi=1.0, confidence=confidence)
    n = agg.n
    p = agg.estimate
    z = _normal_quantile(confidence)
    if n > 1:
        s2 = max(0.0, (agg.wx_sq_sum.value - n * p * p) / (n - 1))
    else:
        s2 = 0.0
    half = z * math.sqrt(s2 / n)
    return Proportion(successes=agg.hits, trials=n, estimate=p,
                      lo=min(p, max(0.0, p - half)),
                      hi=max(p, min(1.0, p + half)),
                      confidence=confidence)
