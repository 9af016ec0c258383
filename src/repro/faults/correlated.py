"""Correlated failure bursts: a shelf of disks dying close together.

A stochastic generalization of the scripted batch-failure scenarios in
:mod:`repro.reliability.scenarios`: bursts arrive as a Poisson process,
each one picks a shelf (a run of ``shelf_size`` consecutive disk ids —
disks sharing power, cooling and a vibration domain) and kills every
still-alive disk in it within a short spread.  Failures are delivered via
the engine's ordinary
:meth:`~repro.reliability.simulation.ReliabilitySimulation.on_disk_failure`
callback.
"""

from __future__ import annotations

import numpy as np

from .base import FaultContext, FaultInjector


class CorrelatedFailures(FaultInjector):
    """Poisson bursts that fail a whole shelf of consecutive disks.

    Parameters
    ----------
    burst_rate_per_s:
        Poisson rate of burst arrivals (1/seconds).
    shelf_size:
        Disks per shelf; shelves tile the initial population in id order.
    spread_s:
        Each shelf disk dies at a uniform offset within this many seconds
        of the burst (0 = simultaneous).
    """

    name = "correlated"

    def __init__(self, burst_rate_per_s: float, shelf_size: int = 12,
                 spread_s: float = 0.0) -> None:
        if burst_rate_per_s <= 0:
            raise ValueError("burst rate must be positive")
        if shelf_size <= 0:
            raise ValueError("shelf must contain at least one disk")
        if spread_s < 0:
            raise ValueError("spread must be non-negative")
        self.rate = burst_rate_per_s
        self.shelf_size = shelf_size
        self.spread_s = spread_s

    def arm(self, ctx: FaultContext) -> None:
        rng = ctx.streams.get("faults-correlated")
        self._arm_next(ctx, rng)

    # ------------------------------------------------------------------ #
    def _arm_next(self, ctx: FaultContext,
                  rng: np.random.Generator) -> None:
        when = ctx.sim.now + float(rng.exponential(1.0 / self.rate))
        if when > ctx.horizon:
            return
        ctx.sim.schedule_at(when, self._burst, ctx, rng,
                            name="shelf-burst")

    def _burst(self, ctx: FaultContext, rng: np.random.Generator) -> None:
        engine = ctx.engine
        n_shelves = max(engine.N0 // self.shelf_size, 1)
        shelf = int(rng.integers(n_shelves))
        ctx.stats.bursts += 1
        # Shelf membership wraps modulo the shelf count, so replacement
        # disks (ids past the initial population) land in a real shelf —
        # the slot their predecessor vacated shares its power/cooling —
        # instead of being structurally burst-immune.
        for disk in range(engine.total_disks):
            if (disk // self.shelf_size) % n_shelves != shelf:
                continue
            if ctx.is_dead(disk):
                continue
            delay = float(rng.random()) * self.spread_s
            ctx.sim.schedule(delay, engine.on_disk_failure, disk,
                             name="burst-failure")
            ctx.stats.burst_failures += 1
        self._arm_next(ctx, rng)
