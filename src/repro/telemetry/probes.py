"""Periodic cluster-state probes driven by the simulator's timers.

A :class:`ClusterProbes` instance owns the gauges for the time-varying
quantities the paper reasons about — recovery bandwidth in use vs. the
configured cap (the 20%-of-80 MB/s rule), disk counts by state
(online, offline, failed), degraded-group count, the
deferred-rebuild queue depth, and per-disk rebuild-load imbalance — and
samples them on a :class:`~repro.sim.engine.PeriodicTimer`
(``sim.every``), so a probe at interval ``T`` over horizon ``H`` observes
exactly ``floor(H / T)`` samples.

Probes are strictly read-only: the sampler an engine provides computes a
:class:`ProbeSample` from current state, draws no randomness, and mutates
nothing, so arming probes cannot perturb simulation results (probe events
only shift the global event sequence counter uniformly, which preserves
the relative order of all other events).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from ..sim.engine import PeriodicTimer, Simulator
    from .handle import Telemetry


@dataclass(frozen=True)
class ProbeSample:
    """One read-only observation of cluster state, in base units."""

    #: Aggregate recovery bandwidth in use right now (sum over disks with
    #: an active rebuild write), bytes/second.
    bandwidth_in_use_bps: float
    #: Largest per-disk recovery bandwidth in use, bytes/second.  The
    #: paper's cap is per disk, so this is the gauge checked against it.
    disk_bandwidth_max_bps: float
    #: The configured per-disk recovery cap, bytes/second.
    bandwidth_cap_bps: float
    #: Disk population by state ("online", "offline", "failed").
    disks_by_state: dict[str, int] = field(default_factory=dict)
    #: Groups currently missing at least one block (and not lost).
    degraded_groups: int = 0
    #: Rebuilds parked in the deferred queue right now.
    deferred_rebuilds: int = 0
    #: Max / mean completed-rebuild-writes per live disk (imbalance).
    rebuild_load_max: float = 0.0
    rebuild_load_mean: float = 0.0
    #: Recovery bandwidth in use per rack (rack id -> bytes/s); populated
    #: only under a non-flat failure-domain topology.
    bandwidth_by_rack: dict[str, float] = field(default_factory=dict)


class ClusterProbes:
    """Gauge bank + timer wiring for periodic :class:`ProbeSample` s."""

    def __init__(self, telemetry: "Telemetry") -> None:
        registry = telemetry.registry
        self.samples = registry.counter(
            "repro_probe_samples_total", help="periodic probe firings")
        self.bandwidth_in_use = registry.gauge(
            "repro_recovery_bandwidth_in_use_bps",
            help="aggregate recovery bandwidth in use (bytes/s)")
        self.disk_bandwidth_max = registry.gauge(
            "repro_recovery_disk_bandwidth_bps",
            help="largest per-disk recovery bandwidth in use (bytes/s); "
                 "never exceeds the configured cap")
        self.bandwidth_cap = registry.gauge(
            "repro_recovery_bandwidth_cap_bps",
            help="configured per-disk recovery cap (bytes/s)")
        self.degraded_groups = registry.gauge(
            "repro_degraded_groups",
            help="groups missing at least one block (not lost)")
        self.deferred_rebuilds = registry.gauge(
            "repro_deferred_rebuilds",
            help="rebuilds parked in the deferred queue")
        self.rebuild_load_max = registry.gauge(
            "repro_rebuild_load_max",
            help="max completed rebuild writes on any live disk")
        self.rebuild_load_mean = registry.gauge(
            "repro_rebuild_load_mean",
            help="mean completed rebuild writes per live disk")
        self.rebuild_load_imbalance = registry.gauge(
            "repro_rebuild_load_imbalance",
            help="max/mean ratio of per-disk rebuild writes (1.0 = even)")
        self._state_gauges: dict[str, object] = {}
        self._rack_gauges: dict[str, object] = {}
        self._registry = registry
        self._timer: "PeriodicTimer | None" = None

    # ------------------------------------------------------------------ #
    def attach(self, sim: "Simulator",
               sampler: Callable[[], ProbeSample],
               interval_s: float, until: float) -> "PeriodicTimer":
        """Arm the periodic probe; ``sampler`` must be read-only."""
        self._timer = sim.every(interval_s, self._tick, sampler,
                                until=until, name="telemetry-probe")
        return self._timer

    def _tick(self, sampler: Callable[[], ProbeSample]) -> None:
        self.record(sampler())

    def record(self, s: ProbeSample) -> None:
        """Fold one observation into the gauges."""
        self.samples.inc()
        self.bandwidth_in_use.set(s.bandwidth_in_use_bps)
        self.disk_bandwidth_max.set(s.disk_bandwidth_max_bps)
        self.bandwidth_cap.set(s.bandwidth_cap_bps)
        self.degraded_groups.set(s.degraded_groups)
        self.deferred_rebuilds.set(s.deferred_rebuilds)
        self.rebuild_load_max.set(s.rebuild_load_max)
        self.rebuild_load_mean.set(s.rebuild_load_mean)
        if s.rebuild_load_mean > 0:
            imbalance = s.rebuild_load_max / s.rebuild_load_mean
        else:
            imbalance = 1.0
        self.rebuild_load_imbalance.set(imbalance)
        for state in sorted(s.disks_by_state):
            gauge = self._state_gauges.get(state)
            if gauge is None:
                gauge = self._registry.gauge(
                    "repro_disks", help="disk population by state",
                    labels={"state": state})
                self._state_gauges[state] = gauge
            gauge.set(s.disks_by_state[state])
        for rack in sorted(s.bandwidth_by_rack):
            gauge = self._rack_gauges.get(rack)
            if gauge is None:
                gauge = self._registry.gauge(
                    "repro_recovery_bandwidth_by_rack_bps",
                    help="recovery bandwidth in use per rack (bytes/s)",
                    labels={"rack": rack})
                self._rack_gauges[rack] = gauge
            gauge.set(s.bandwidth_by_rack[rack])
