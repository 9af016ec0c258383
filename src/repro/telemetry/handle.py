"""The `Telemetry` facade the engines instrument against.

Both engines take a nullable ``telemetry=`` handle; every instrumentation
site is ``if self.telemetry is not None: ...`` so the disabled path costs
one attribute test per event (pinned <= 3% by
``tests/test_telemetry.py::test_disabled_guard_overhead_within_3pct``).
A :class:`TelemetryConfig` is a small frozen dataclass — picklable, so
the sweep runner can ship it to worker processes, which construct their
own :class:`Telemetry` per run and return the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..units import DAY, MONTH, SECOND
from .metrics import MetricRegistry, log_bounds
from .probes import ClusterProbes, ProbeSample
from .spans import SpanTracker

if TYPE_CHECKING:
    from ..sim.engine import Simulator

#: (attribute, metric name, help) for the engine-hook counters.
_COUNTER_SPECS: tuple[tuple[str, str, str], ...] = (
    ("disk_failures", "repro_disk_failures_total",
     "whole-disk failures processed"),
    ("rebuilds_started", "repro_rebuilds_started_total",
     "block rebuilds started"),
    ("rebuilds_completed", "repro_rebuilds_completed_total",
     "block rebuilds completed"),
    ("target_redirections", "repro_target_redirections_total",
     "rebuilds restarted because their target died/vanished"),
    ("source_redirections", "repro_source_redirections_total",
     "rebuilds that swapped in an alternative source"),
    ("rebuilds_deferred", "repro_rebuilds_deferred_total",
     "rebuilds parked in the deferred queue"),
    ("rebuild_retries", "repro_rebuild_retries_total",
     "deferred-rebuild retry attempts"),
    ("rebuilds_unplaced", "repro_rebuilds_unplaced_total",
     "rebuilds with no admissible target right now (parked in the "
     "deferred queue for retry)"),
    ("rebuilds_deferred_constraint",
     "repro_rebuilds_deferred_constraint_total",
     "rebuilds deferred because the failure-domain placement cap vetoed "
     "every otherwise admissible target"),
    ("domain_colocated_losses", "repro_domain_colocated_losses_total",
     "block losses whose group kept another live block in the failing "
     "disk's rack (domain co-vulnerability)"),
    ("groups_lost", "repro_groups_lost_total",
     "redundancy groups that lost more blocks than the scheme tolerates"),
    ("latent_discovered", "repro_latent_discovered_total",
     "latent sector errors surfaced by a scrub or rebuild read"),
    ("latent_injected", "repro_latent_injected_total",
     "latent sector errors injected by fault processes"),
    ("scrubs", "repro_scrubs_total", "per-disk scrub passes"),
    ("scrub_discoveries", "repro_scrub_discoveries_total",
     "latent errors found by scrubbing"),
    ("transient_outages", "repro_transient_outages_total",
     "transient disk outages processed"),
    ("replacement_batches", "repro_replacement_batches_total",
     "batch replacements triggered"),
    ("blocks_migrated", "repro_blocks_migrated_total",
     "blocks rebalanced onto replacement batches"),
    ("spares_provisioned", "repro_spares_provisioned_total",
     "dedicated spares provisioned (traditional recovery)"),
    ("rebuilds_held", "repro_rebuilds_held_total",
     "rebuilds held back by the lazy recovery_threshold trigger"),
    ("held_released", "repro_held_released_total",
     "held rebuilds released once a group crossed its lazy threshold"),
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for one telemetry-enabled run (picklable; worker-safe)."""

    #: Period of the cluster-state probe (seconds of simulated time).
    probe_interval_s: float = DAY
    #: Window-of-vulnerability histogram bucket range (seconds) and
    #: log-spaced resolution.
    window_bucket_lo_s: float = SECOND
    window_bucket_hi_s: float = MONTH
    window_buckets_per_decade: int = 4

    def window_bounds(self) -> tuple[float, ...]:
        return log_bounds(self.window_bucket_lo_s, self.window_bucket_hi_s,
                          self.window_buckets_per_decade)


class Telemetry:
    """One run's worth of instruments: counters, probes, window spans."""

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config or TelemetryConfig()
        self.registry = MetricRegistry()
        for attr, name, help_text in _COUNTER_SPECS:
            setattr(self, attr, self.registry.counter(name, help=help_text))
        self.latent_window_seconds = self.registry.counter(
            "repro_latent_window_seconds_total",
            help="sum of (discovery - corruption) over latent errors")
        self.windows = SpanTracker(
            self.registry, "repro_window_of_vulnerability_seconds",
            bounds=self.config.window_bounds(),
            help="window of vulnerability per completed rebuild (seconds), "
                 "bucketed by redundancy-group size n")
        self.group_unavailability = SpanTracker(
            self.registry, "repro_group_unavailability_seconds",
            bounds=self.config.window_bounds(),
            help="per-group degraded (unavailable) span: first block "
                 "failure to full redundancy restored (seconds), bucketed "
                 "by redundancy-group size n")
        self.probes = ClusterProbes(self)

    # -- span convenience hooks (names match the engine call sites) ------ #
    def block_failed(self, grp_id: int, rep_id: int, now: float,
                     group_size: int) -> None:
        """A block became unavailable: open its vulnerability span."""
        self.windows.begin((grp_id, rep_id), now, group_size)

    def block_rebuilt(self, grp_id: int, rep_id: int, now: float) -> None:
        """Its re-replication completed: close the span."""
        self.windows.end((grp_id, rep_id), now)

    def group_degraded(self, grp_id: int, now: float,
                       group_size: int) -> None:
        """First block of the group went missing: open its span."""
        self.group_unavailability.begin((grp_id, -1), now, group_size)

    def group_restored(self, grp_id: int, now: float) -> None:
        """Full redundancy restored: close the unavailability span."""
        self.group_unavailability.end((grp_id, -1), now)

    def group_lost(self, grp_id: int) -> None:
        """The group died: abort its open spans, count the loss."""
        self.groups_lost.inc()
        self.windows.abort_group(grp_id)
        self.group_unavailability.abort_group(grp_id)

    # -- probes ---------------------------------------------------------- #
    def attach_probes(self, sim: "Simulator",
                      sampler: Callable[[], ProbeSample],
                      until: float) -> None:
        """Arm the periodic cluster-state probe on ``sim``."""
        self.probes.attach(sim, sampler, self.config.probe_interval_s,
                           until)

    # -- output ---------------------------------------------------------- #
    def snapshot(self) -> dict:
        """Plain-dict snapshot of every instrument (schema
        ``repro.telemetry.v1``); safe to pickle, merge, and export."""
        self.windows.sync_open_gauge()
        self.group_unavailability.sync_open_gauge()
        return self.registry.snapshot()
