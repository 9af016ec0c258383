"""Correlated faults along the failure-domain hierarchy.

:class:`~repro.faults.correlated.CorrelatedFailures` models a shelf — a
run of consecutive disk ids.  These injectors act on the *topology*
(:class:`~repro.cluster.topology.Topology`): a whole rack losing power, a
machine rebooting and taking all its disks offline together, a machine
with a saturated uplink throttling every disk behind it.  Domain
membership comes from ``ctx.engine.topology``, so replacement disks that
inherited a failed slot's bay are hit alongside their domain — no disk is
structurally immune.

Each injector draws from its own ``faults-domain-*`` stream, so arming
one never perturbs the base simulation's draw order (asserted by the
stream-ownership analyzer, RPR102).
"""

from __future__ import annotations

import numpy as np

from .base import FaultContext, FaultInjector


def _domain_of(ctx: FaultContext, level: str, domain: int) -> list[int]:
    return ctx.engine.topology.domain_disks(level, domain)


class DomainBurst(FaultInjector):
    """Poisson bursts that permanently kill a whole rack or machine.

    Parameters
    ----------
    burst_rate_per_s:
        Poisson rate of burst arrivals (1/seconds).
    level:
        ``"rack"`` or ``"machine"`` — which domain a burst takes out.
    spread_s:
        Each domain disk dies at a uniform offset within this many
        seconds of the burst (0 = simultaneous).
    """

    name = "domain-burst"

    def __init__(self, burst_rate_per_s: float, level: str = "rack",
                 spread_s: float = 0.0) -> None:
        if burst_rate_per_s <= 0:
            raise ValueError("burst rate must be positive")
        if level not in ("rack", "machine"):
            raise ValueError("level must be 'rack' or 'machine'")
        if spread_s < 0:
            raise ValueError("spread must be non-negative")
        self.rate = burst_rate_per_s
        self.level = level
        self.spread_s = spread_s

    def arm(self, ctx: FaultContext) -> None:
        rng = ctx.streams.get("faults-domain-bursts")
        self._arm_next(ctx, rng)

    # ------------------------------------------------------------------ #
    def _arm_next(self, ctx: FaultContext,
                  rng: np.random.Generator) -> None:
        when = ctx.sim.now + float(rng.exponential(1.0 / self.rate))
        if when > ctx.horizon:
            return
        ctx.sim.schedule_at(when, self._burst, ctx, rng,
                            name="domain-burst")

    def _burst(self, ctx: FaultContext, rng: np.random.Generator) -> None:
        topo = ctx.engine.topology
        domain = int(rng.integers(topo.n_domains(self.level)))
        ctx.stats.domain_bursts += 1
        for disk_id in _domain_of(ctx, self.level, domain):
            if ctx.is_dead(disk_id):
                continue
            delay = float(rng.random()) * self.spread_s
            ctx.sim.schedule(delay, ctx.engine.on_disk_failure, disk_id,
                             name="domain-burst-failure")
            ctx.stats.domain_burst_failures += 1
        self._arm_next(ctx, rng)


class DomainOutages(FaultInjector):
    """Whole-domain transient outages: a machine reboots, its disks
    vanish together and return together with their data.

    Both edges go through the engine's ordinary
    ``on_disk_offline`` / ``on_disk_online`` callbacks, so rebuilds whose
    sources went dark land in the deferred-rebuild queue and drain when
    the domain returns.

    Parameters
    ----------
    rate_per_domain_per_s:
        Poisson rate of outage onsets on each domain (1/seconds).
    mean_duration_s:
        Mean of the exponential outage duration.
    level:
        ``"machine"`` (default — a reboot) or ``"rack"`` (a switch).
    """

    name = "domain-outages"

    def __init__(self, rate_per_domain_per_s: float,
                 mean_duration_s: float, level: str = "machine") -> None:
        if rate_per_domain_per_s <= 0 or mean_duration_s <= 0:
            raise ValueError("outage rate and duration must be positive")
        if level not in ("rack", "machine"):
            raise ValueError("level must be 'rack' or 'machine'")
        self.rate = rate_per_domain_per_s
        self.mean_duration_s = mean_duration_s
        self.level = level

    def arm(self, ctx: FaultContext) -> None:
        rng = ctx.streams.get("faults-domain-outages")
        for domain in range(ctx.engine.topology.n_domains(self.level)):
            self._arm_domain(ctx, rng, domain, after=0.0)

    # ------------------------------------------------------------------ #
    def _arm_domain(self, ctx: FaultContext, rng: np.random.Generator,
                    domain: int, after: float) -> None:
        gap = float(rng.exponential(1.0 / self.rate))
        when = ctx.sim.now + after + gap
        if when > ctx.horizon:
            return
        ctx.sim.schedule_at(when, self._begin, ctx, rng, domain,
                            name="domain-outage-begin")

    def _begin(self, ctx: FaultContext, rng: np.random.Generator,
               domain: int) -> None:
        duration = float(rng.exponential(self.mean_duration_s))
        affected = [d for d in _domain_of(ctx, self.level, domain)
                    if ctx.engine.alive[d]]
        if affected:
            ctx.stats.domain_outages_started += 1
            for disk_id in affected:
                ctx.engine.on_disk_offline(disk_id)
            ctx.sim.schedule(duration, self._end, ctx, affected,
                             name="domain-outage-end")
        # The next outage cannot begin before this one would have ended.
        self._arm_domain(ctx, rng, domain, after=duration)

    def _end(self, ctx: FaultContext, affected: list[int]) -> None:
        ctx.stats.domain_outages_ended += 1
        for disk_id in affected:
            ctx.engine.on_disk_online(disk_id)      # stale-guarded if dead


class DomainStragglers(FaultInjector):
    """Degrade every disk behind a sampled set of domains at arm time.

    Models a saturated machine uplink or top-of-rack switch: the whole
    domain shares the bottleneck, so all of its disks get the *same*
    bandwidth multiplier (unlike per-disk
    :class:`~repro.faults.stragglers.Stragglers`).

    Parameters
    ----------
    fraction:
        Fraction of the domains to degrade, in (0, 1].
    factor_range:
        Uniform sampling range for the per-domain multiplier, within
        (0, 1].
    level:
        ``"machine"`` (default) or ``"rack"``.
    """

    name = "domain-stragglers"

    def __init__(self, fraction: float,
                 factor_range: tuple[float, float] = (0.1, 0.5),
                 level: str = "machine") -> None:
        if not 0 < fraction <= 1:
            raise ValueError("straggler fraction must be in (0, 1]")
        lo, hi = factor_range
        if not 0 < lo <= hi <= 1:
            raise ValueError("factor range must satisfy 0 < lo <= hi <= 1")
        if level not in ("rack", "machine"):
            raise ValueError("level must be 'rack' or 'machine'")
        self.fraction = fraction
        self.factor_range = (lo, hi)
        self.level = level

    def arm(self, ctx: FaultContext) -> None:
        rng = ctx.streams.get("faults-domain-stragglers")
        n = ctx.engine.topology.n_domains(self.level)
        count = int(round(self.fraction * n))
        if count <= 0:
            return
        chosen = rng.choice(n, size=count, replace=False)
        lo, hi = self.factor_range
        factors = rng.uniform(lo, hi, size=count)
        for domain, factor in zip(chosen, factors):
            for disk_id in _domain_of(ctx, self.level, int(domain)):
                current = ctx.engine.bandwidth_factor.get(disk_id, 1.0)
                ctx.engine.set_bandwidth_factor(disk_id,
                                                min(current, float(factor)))
            ctx.stats.domain_stragglers += 1
