"""Deterministic failure scenarios: what-if studies and post-mortems.

The Monte-Carlo engines sample failures stochastically; this module lets an
operator *script* them — "disk 17 dies at t=100 s, its recovery target dies
40 s later, a whole shelf of 12 disks goes at t=1 h" — and observe exactly
how FARM (or the traditional baseline) responds: windows, redirections,
which groups were lost and when.

Scenarios run on the flat engine with stochastic failures turned off —
every failure is injected, even for spares provisioned mid-run — which
makes the outcome exactly reproducible.  The finished engine is the
outcome's read-only state view.

Beyond whole-disk deaths a scenario can script *transient outages*
(:meth:`Scenario.outage`) and *latent sector errors*
(:meth:`Scenario.latent`), and arm any stochastic
:class:`~repro.faults.base.FaultInjector` (:meth:`Scenario.inject_faults`)
— those draw from their own named streams, so the scripted part of the
timeline stays exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..faults.base import FaultContext, FaultInjector, FaultStats, arm_all
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from ..telemetry.handle import Telemetry
from .simulation import PolicyConfig, RecoveryStats, ReliabilitySimulation


class ScriptedFailures:
    """Failure draw of a scripted run: no drive ever fails on its own.

    Installed through the engine's ``failure_draw`` hook, it returns an
    infinite age for every drive, spares and batch drives included, and
    consumes no uniforms.
    """

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, np.inf)


@dataclass(frozen=True)
class Injection:
    """One scripted disk failure."""

    time: float
    disk_id: int


@dataclass
class ScenarioOutcome:
    """Everything observable after a scenario runs."""

    config: SystemConfig
    injections: list[Injection]
    stats: RecoveryStats
    #: the finished engine: its read-only state view.
    system: ReliabilitySimulation
    trace: TraceRecorder
    lost_groups: list[int]
    fault_stats: FaultStats = field(default_factory=FaultStats)
    #: rebuilds still parked in the deferred queue at the horizon.
    deferred_outstanding: int = 0
    #: rebuilds still held by the lazy-recovery trigger at the horizon.
    held_outstanding: int = 0

    @property
    def data_survived(self) -> bool:
        return not self.lost_groups

    def summary(self) -> str:
        s = self.stats
        mode = "FARM" if self.config.use_farm else "traditional"
        lines = [
            f"scenario under {mode} recovery: "
            f"{len(self.injections)} injected failures",
            f"  rebuilds: {s.rebuilds_completed}/{s.rebuilds_started} "
            f"completed, mean window {s.mean_window:,.0f} s, "
            f"max {s.window_max:,.0f} s",
            f"  redirections: {s.target_redirections} target, "
            f"{s.source_redirections} source",
        ]
        if s.rebuilds_deferred:
            lines.append(
                f"  degraded: {s.rebuilds_deferred} rebuilds deferred, "
                f"{s.retries} retries, "
                f"{self.deferred_outstanding} still parked")
        if s.latent_errors_discovered or s.transient_outages:
            lines.append(
                f"  faults: {s.latent_errors_discovered} latent errors "
                f"discovered (mean latency {s.mean_latent_window:,.0f} s), "
                f"{s.transient_outages} transient outages")
        if self.lost_groups:
            lines.append(f"  DATA LOST: groups {self.lost_groups} "
                         f"(first at t={s.first_loss_time:,.0f} s)")
        else:
            lines.append("  no data lost")
        return "\n".join(lines)


class Scenario:
    """Builder for scripted-failure studies.

    >>> from repro.units import TB, GB
    >>> cfg = SystemConfig(total_user_bytes=4 * TB,
    ...                    group_user_bytes=10 * GB)
    >>> out = (Scenario(cfg)
    ...        .fail(disk=0, at=100.0)
    ...        .fail(disk=1, at=200.0)
    ...        .run(horizon=86400.0))
    >>> isinstance(out.data_survived, bool)
    True
    """

    def __init__(self, config: SystemConfig, seed: int = 0,
                 policy: PolicyConfig | None = None,
                 telemetry: "Telemetry | None" = None) -> None:
        self.config = config
        self.seed = seed
        self.policy = policy
        self.telemetry = telemetry
        self._injections: list[Injection] = []
        #: (time, disk, count) partner failures resolved once the system
        #: is built (partner identity depends on placement).
        self._partner_injections: list[tuple[float, int, int]] = []
        #: (start, disk, duration) scripted transient outages.
        self._outages: list[tuple[float, int, float]] = []
        #: (time, disk) scripted latent-error injections.
        self._latents: list[tuple[float, int]] = []
        self._injectors: list[FaultInjector] = []

    # -- scripting ------------------------------------------------------- #
    def _check_disk(self, disk: int) -> int:
        if not 0 <= disk < self.config.n_disks:
            raise ValueError(f"no such disk {disk}: the system has disks "
                             f"0..{self.config.n_disks - 1}")
        return disk

    def fail(self, disk: int, at: float) -> "Scenario":
        """Schedule disk ``disk`` to fail at time ``at`` (seconds)."""
        if at < 0:
            raise ValueError("injection time must be non-negative")
        self._injections.append(Injection(time=float(at),
                                          disk_id=self._check_disk(disk)))
        return self

    def fail_batch(self, disks: list[int], at: float) -> "Scenario":
        """A correlated failure (shelf / rack / cooling-zone loss)."""
        for d in disks:
            self._check_disk(d)
        for d in disks:
            self.fail(d, at)
        return self

    def fail_partners_of(self, disk: int, at: float,
                         count: int = 1) -> "Scenario":
        """Fail ``count`` disks that share a redundancy group with
        ``disk`` — the adversarial case for the window of vulnerability.

        Partner identity depends on the placement, so resolution happens in
        :meth:`run` once the system is built.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if at < 0:
            raise ValueError("injection time must be non-negative")
        self._partner_injections.append((float(at), self._check_disk(disk),
                                         count))
        return self

    def outage(self, disk: int, at: float, duration: float) -> "Scenario":
        """Take ``disk`` offline at ``at`` and bring it back after
        ``duration`` seconds — a transient outage, not a failure."""
        if at < 0 or duration <= 0:
            raise ValueError("outage needs at >= 0 and duration > 0")
        self._outages.append((float(at), self._check_disk(disk),
                              float(duration)))
        return self

    def latent(self, disk: int, at: float) -> "Scenario":
        """Silently corrupt one block on ``disk`` at time ``at``; nothing
        notices until a scrub or rebuild read discovers it."""
        if at < 0:
            raise ValueError("injection time must be non-negative")
        self._latents.append((float(at), self._check_disk(disk)))
        return self

    def inject_faults(self, *injectors: FaultInjector) -> "Scenario":
        """Arm stochastic fault injectors (see :mod:`repro.faults`)."""
        self._injectors.extend(injectors)
        return self

    # -- execution -------------------------------------------------------- #
    def run(self, horizon: float | None = None) -> ScenarioOutcome:
        """Build the system, inject the script, simulate to the horizon."""
        end = horizon if horizon is not None else self.config.duration
        engine = ReliabilitySimulation(
            self.config.with_(duration=end), seed=self.seed,
            telemetry=self.telemetry, failure_draw=ScriptedFailures(),
            policy=self.policy)
        trace = TraceRecorder()
        sim = engine.sim = Simulator(trace=trace)
        ctx = FaultContext(engine=engine, horizon=end,
                           telemetry=self.telemetry)
        arm_all(self._injectors, ctx)

        resolved: list[Injection] = list(self._injections)
        for at, disk, count in self._partner_injections:
            partners: list[int] = []
            for g, _ in engine.blocks_on(disk):
                for d in engine.group_disks[g].tolist():
                    if d != disk and d not in partners:
                        partners.append(d)
                if len(partners) >= count:
                    break
            for d in partners[:count]:
                resolved.append(Injection(time=at, disk_id=d))
        resolved.sort(key=lambda i: i.time)

        for inj in resolved:
            sim.schedule_at(inj.time, engine.on_disk_failure, inj.disk_id,
                            name="injected-failure")
        for at, disk, duration in self._outages:
            sim.schedule_at(at, engine.on_disk_offline, disk,
                            name="injected-outage")
            sim.schedule_at(at + duration, engine.on_disk_online, disk,
                            name="injected-restore")
        latent_rng = (engine.streams.get("faults-latent")
                      if self._latents else None)
        for at, disk in sorted(self._latents):
            sim.schedule_at(at, self._inject_latent, ctx, latent_rng, disk,
                            name="injected-latent")
        stats = engine.run()
        lost = np.flatnonzero(engine.lost).tolist()
        return ScenarioOutcome(config=self.config, injections=resolved,
                               stats=stats, system=engine, trace=trace,
                               lost_groups=lost, fault_stats=ctx.stats,
                               deferred_outstanding=len(engine._deferred),
                               held_outstanding=sum(
                                   map(len, engine._held.values())))

    @staticmethod
    def _inject_latent(ctx: FaultContext, rng: np.random.Generator,
                       disk: int) -> None:
        # An unreachable disk can be neither written nor corrupted.
        if ctx.engine.corrupt_block(disk, rng) is not None:
            ctx.stats.latent_injected += 1
