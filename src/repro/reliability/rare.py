"""Rare-event acceleration for the probability of data loss.

The paper's headline probabilities drop to 1e-4 and far below, where the
naive estimator (count losing lifetimes) needs millions of runs for a
usable interval.  This module provides the classic variance-reduction
estimator for that regime, exactly unbiased and degenerating to the
naive estimator at its trivial setting (the golden-pin gate in
``tests/test_rare.py``):

**Importance sampling by exponential tilting**
    (:class:`TiltedFailureDraw`, run by ``estimate_p_loss(config,
    tilt=...)`` and ``sweep(..., tilt=...)``).  Failure ages are drawn
    from the bathtub model with every hazard multiplied by ``exp(tilt)``;
    each run carries the likelihood ratio of its censored failure-age
    vector on ``RecoveryStats.log_weight``, and the weighted sums fold
    through :class:`~repro.reliability.stats.WeightedAggregate` in
    run-index order, so serial and parallel sweeps agree bit for bit.
    The sampler consumes the *same* uniforms from the ordinary
    ``disk-failures`` stream the naive path uses, which is what makes
    ``tilt=0`` reproduce the unweighted trajectories exactly, and makes
    tilted/untilted pairs common-random-number coupled.

When it wins, the math, and the re-pin policy for weighted goldens are
documented in ``docs/RARE_EVENTS.md``.
"""

from __future__ import annotations

import math

import numpy as np

from ..disks.failure import BathtubFailureModel

#: Default hazard tilt of the ``is`` estimator (``run --estimator is``):
#: every failure rate is multiplied by ``exp(DEFAULT_TILT)``.  Tuned for
#: the small "rare regime" scenarios where global tilting genuinely helps
#: (see ``docs/RARE_EVENTS.md`` for the weight-degeneracy analysis that
#: caps useful tilts as the disk count grows).
DEFAULT_TILT = math.log(3.0)


class TiltedFailureDraw:
    """Exponentially tilted failure-age proposal with LR accounting.

    Implements the :class:`~repro.reliability.simulation.FailureDraw`
    protocol.  A drive whose reference hazard is ``h(t)`` is sampled with
    hazard ``c * h(t)``, ``c = exp(tilt)``; the accumulated
    :attr:`log_weight` is the log density ratio of the *censored*
    observation (the age if it precedes the horizon, else the survival
    event), which is all the trajectory can see:

    * observed at age ``t`` (given current age ``a``):
      ``log w = (c - 1) * (H(t) - H(a)) - log c``
    * censored at horizon age ``T``:
      ``log w = (c - 1) * (H(T) - H(a))``

    with ``H`` the reference cumulative hazard.  Taking the ratio on the
    censored statistic Rao-Blackwellizes away the over-horizon tail and
    keeps survivor weights deterministic.  At ``tilt = 0`` the proposal
    *is* the reference model (``scaled(1.0)`` is bit-identical), the same
    uniforms produce the same ages, and ``log_weight`` stays exactly 0.
    """

    def __init__(self, model: BathtubFailureModel, tilt: float) -> None:
        self.model = model
        self.tilt = float(tilt)
        #: hazard multiplier c = exp(tilt)
        self.factor = math.exp(self.tilt)
        self.tilted = model.scaled(self.factor)
        self.log_weight = 0.0

    def sample(self, rng: np.random.Generator, size: int,
               current_age: np.ndarray | float = 0.0,
               horizon_age: float = math.inf) -> np.ndarray:
        ages = self.tilted.sample_failure_age(rng, size,
                                              current_age=current_age)
        c = self.factor
        base = self.model
        cur = np.broadcast_to(np.asarray(current_age, dtype=float), (size,))
        h0 = base.cumulative_hazard(cur)
        observed = ages <= horizon_age
        n_obs = int(observed.sum())
        logw = 0.0
        if n_obs:
            dh = base.cumulative_hazard(ages[observed]) - h0[observed]
            logw += (c - 1.0) * float(dh.sum()) - n_obs * math.log(c)
        if n_obs < size:
            dh_t = base.cumulative_hazard(horizon_age) - h0[~observed]
            logw += (c - 1.0) * float(dh_t.sum())
        self.log_weight += logw
        return ages
