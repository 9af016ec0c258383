"""Closed-form approximations of the probability of data loss.

Two independent models cross-check the simulators:

* :func:`p_loss_window_model` — the window-of-vulnerability argument the
  paper makes informally: each disk failure exposes its blocks for a window
  (detection + rebuild, or detection + queue position for the traditional
  baseline); loss occurs when enough of a group's other disks fail inside
  the window.  First-order in the hazard, accurate when windows are short
  compared to drive lifetimes (always true here).
* :mod:`repro.reliability.markov` — an exact continuous-time Markov chain
  for a single group under constant rates.

Both reproduce the key scaling facts the paper reports: P(loss) is linear
in system scale, FARM is insensitive to group size (blocks/disk times
window is invariant), and the traditional baseline degrades with smaller
groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import SystemConfig


@dataclass(frozen=True)
class WindowModel:
    """Intermediate quantities of the window-of-vulnerability estimate."""

    expected_disk_failures: float
    blocks_per_disk: float
    mean_window: float
    #: mean hazard times mean window: the expansion variable, and the
    #: estimate's relative truncation error.
    hazard_window: float
    per_block_loss: float
    per_failure_loss: float
    p_loss: float
    #: first-order mean time to (system) data loss, in seconds.
    mttdl: float


def mean_hazard(cfg: SystemConfig) -> float:
    """Average per-second failure hazard of a drive over the horizon."""
    fm = cfg.vintage.failure_model
    return float(fm.cumulative_hazard(cfg.duration)) / cfg.duration


def expected_disk_failures(cfg: SystemConfig) -> float:
    """Expected number of drive failures over the horizon (no replacement)."""
    fm = cfg.vintage.failure_model
    return cfg.n_disks * float(1.0 - fm.survival(cfg.duration))


def mean_window(cfg: SystemConfig) -> float:
    """Mean window of vulnerability per lost block.

    FARM: detection latency plus one block rebuild.  Traditional: detection
    latency plus the mean queue position on the single spare, i.e.
    ``(B+1)/2`` block rebuilds for ``B`` blocks per disk.
    """
    t_block = cfg.rebuild_seconds_per_block
    if cfg.use_farm:
        return cfg.detection_latency + t_block
    blocks = cfg.blocks_per_disk
    return cfg.detection_latency + 0.5 * (blocks + 1.0) * t_block


def p_loss_window_model(cfg: SystemConfig) -> WindowModel:
    """First-order window-of-vulnerability estimate of P(data loss).

    For a block with window W, the group is lost if at least ``tol`` of the
    group's other ``n - 1`` disks fail within W; with per-disk hazard h and
    hW << 1 the leading term is ``C(n-1, tol) * (h W)^tol``.

    Loss events arrive as a thinned failure process at rate
    ``expected_disk_failures * per_failure_loss / duration``; the MTTDL
    is its reciprocal (``inf`` when the model predicts no loss at all).
    """
    h = mean_hazard(cfg)
    w = mean_window(cfg)
    n = cfg.scheme.n
    tol = cfg.scheme.tolerance
    hw = h * w
    per_block = math.comb(n - 1, tol) * hw ** tol
    blocks = cfg.blocks_per_disk
    per_failure = blocks * per_block
    failures = expected_disk_failures(cfg)
    p = 1.0 - math.exp(-failures * per_failure)
    rate = failures * per_failure / cfg.duration
    return WindowModel(expected_disk_failures=failures,
                       blocks_per_disk=blocks, mean_window=w,
                       hazard_window=hw, per_block_loss=per_block,
                       per_failure_loss=per_failure, p_loss=p,
                       mttdl=1.0 / rate if rate > 0.0 else float("inf"))


def p_loss(cfg: SystemConfig) -> float:
    """Shorthand for the window-model estimate of P(data loss)."""
    return p_loss_window_model(cfg).p_loss


def mttdl_estimate(cfg: SystemConfig) -> float:
    """Shorthand for the window-model mean time to data loss (seconds)."""
    return p_loss_window_model(cfg).mttdl
