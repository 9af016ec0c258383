"""Continuous-time Markov chain for a single redundancy group.

Under constant per-disk failure rate λ and per-block repair rate μ, one
(m, n) group is a birth–death chain on the number of missing blocks
``i = 0 .. tol+1``, with the last state absorbing (data loss):

* failure transitions: ``i -> i+1`` at rate ``(n - i) λ``;
* repair transitions: ``i -> i-1`` at rate ``i μ`` when repairs run in
  parallel (FARM) or ``μ`` when they serialize at one target (traditional).

This is the classical disk-array reliability chain (Schwarz & Burkhard;
Chen et al.) and serves as an exact oracle for the simulators under
constant rates: ``tests/test_markov_vs_simulation.py`` pins them together.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import SystemConfig
from ..redundancy.schemes import RedundancyScheme
from .analytic import mean_hazard, mean_window


def _absorbed_by(q: np.ndarray, horizon: float) -> float:
    """P(a chain with generator ``q`` started in state 0 is in its last
    state at ``horizon``).

    ``expm`` is imported here, not at module level, so that the many
    processes that import :mod:`repro` but never solve a chain (sweeps,
    pool workers, the bulk engine) do not load ``scipy.linalg``.
    """
    from scipy.linalg import expm
    p0 = np.zeros(q.shape[0])
    p0[0] = 1.0
    pt = p0 @ expm(q * horizon)
    return float(pt[-1])


def group_generator(scheme: RedundancyScheme, fail_rate: float,
                    repair_rate: float, parallel_repair: bool = True
                    ) -> np.ndarray:
    """Generator matrix Q of the single-group chain (absorbing last state)."""
    if fail_rate < 0 or repair_rate < 0:
        raise ValueError("rates must be non-negative")
    tol = scheme.tolerance
    size = tol + 2
    q = np.zeros((size, size))
    for i in range(size - 1):
        up = (scheme.n - i) * fail_rate
        q[i, i + 1] = up
        if i > 0:
            down = (i * repair_rate) if parallel_repair else repair_rate
            q[i, i - 1] = down
        q[i, i] = -q[i].sum()
    return q


def p_group_loss(scheme: RedundancyScheme, fail_rate: float,
                 repair_rate: float, horizon: float,
                 parallel_repair: bool = True) -> float:
    """P(one group reaches the absorbing loss state within ``horizon``)."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    return _absorbed_by(
        group_generator(scheme, fail_rate, repair_rate, parallel_repair),
        horizon)


def lazy_group_generator(scheme: RedundancyScheme, fail_rate: float,
                         repair_rate: float, threshold: int,
                         parallel_repair: bool = True) -> np.ndarray:
    """Generator of the *lazy-recovery* chain (repairs gated below r).

    Identical to :func:`group_generator` except that repair transitions
    from states ``0 < i < threshold`` are removed: a lazy policy with
    ``recovery_threshold = r`` starts no rebuild until the group has at
    least ``r`` missing blocks.  This slightly over-penalizes the policy
    (the real engines keep repairing a group back to health once the
    trigger has fired, while the chain re-gates whenever ``i`` drops
    below ``r``), making it a conservative upper bound on the simulated
    lazy p_loss — the bracket the conformance tests assert.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if threshold > max(1, scheme.tolerance):
        raise ValueError(f"threshold {threshold} exceeds the scheme's "
                         f"fault tolerance ({scheme.tolerance})")
    q = group_generator(scheme, fail_rate, repair_rate, parallel_repair)
    for i in range(1, min(threshold, q.shape[0] - 1)):
        q[i, i] += q[i, i - 1]
        q[i, i - 1] = 0.0
    return q


def p_group_loss_lazy(scheme: RedundancyScheme, fail_rate: float,
                      repair_rate: float, horizon: float, threshold: int,
                      parallel_repair: bool = True) -> float:
    """P(loss within ``horizon``) for one group under lazy recovery."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    return _absorbed_by(
        lazy_group_generator(scheme, fail_rate, repair_rate, threshold,
                             parallel_repair),
        horizon)


def p_system_loss(scheme: RedundancyScheme, n_groups: int, fail_rate: float,
                  repair_rate: float, horizon: float,
                  parallel_repair: bool = True) -> float:
    """P(any of ``n_groups`` independent groups is lost within horizon).

    Group independence is the idealization the paper's earlier study [37]
    uses; it is slightly pessimistic for declustered systems (failures are
    shared across groups) but accurate at first order.
    """
    if n_groups <= 0:
        raise ValueError("n_groups must be positive")
    p1 = p_group_loss(scheme, fail_rate, repair_rate, horizon,
                      parallel_repair)
    return float(1.0 - (1.0 - p1) ** n_groups)


def mttdl(scheme: RedundancyScheme, fail_rate: float,
          repair_rate: float, parallel_repair: bool = True) -> float:
    """Mean time to data loss of one group (expected absorption time).

    The birth–death chain's closed form: ``T_k``, the mean time from
    ``k`` to ``k + 1`` missing blocks, is ``T_0 = 1/a_0`` and ``T_k =
    1/a_k + (b_k/a_k) T_{k-1}``, with failure rate ``a_k = (n - k) λ``
    and repair rate ``b_k`` (``k μ`` in parallel, ``μ`` serial); the
    MTTDL is ``sum(T_k)``.  Every term is positive, so no digits cancel;
    a linear solve of ``Q_t m = -1`` kept as few as three correct digits
    at the MTTDL table's configs, whose rates are ~1e5 apart.
    ``math.inf`` when λ = 0.
    """
    if fail_rate < 0 or repair_rate < 0:
        raise ValueError("rates must be non-negative")
    if fail_rate == 0.0:
        return math.inf
    total = passage = 0.0
    for k in range(scheme.tolerance + 1):
        down = k * repair_rate if parallel_repair else repair_rate
        passage = (1.0 + down * passage) / ((scheme.n - k) * fail_rate)
        total += passage
    return total


# --------------------------------------------------------------------- #
# Config-mapped forms
# --------------------------------------------------------------------- #
def p_loss_config(cfg: SystemConfig) -> float:
    """P(system data loss over the configured duration), chain-exact.

    Maps a :class:`SystemConfig` onto the chain the way the window model
    does: failure rate :func:`~repro.reliability.analytic.mean_hazard`,
    repair rate one over :func:`~repro.reliability.analytic.mean_window`,
    FARM as parallel repair, independence across the config's groups.
    Callers gate on the markov column of
    :mod:`repro.reliability.envelope` (constant rate, FARM, flat).
    """
    return p_system_loss(cfg.scheme, cfg.n_groups, mean_hazard(cfg),
                         1.0 / mean_window(cfg), cfg.duration,
                         parallel_repair=cfg.use_farm)


def mttdl_config(cfg: SystemConfig) -> float:
    """System MTTDL (seconds) under :func:`p_loss_config`'s mapping.

    One group's expected absorption time divided by the group count —
    exact for independent exponential competing groups at first order.
    """
    return mttdl(cfg.scheme, mean_hazard(cfg), 1.0 / mean_window(cfg),
                 parallel_repair=cfg.use_farm) / cfg.n_groups
