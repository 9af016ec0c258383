"""Flat-array reliability simulation: the repository's one DES engine.

Group state lives in NumPy arrays and recovery targets are drawn by
rejection sampling (the candidate-list entries of a hash placement are
uniform, so probing uniformly is the same distribution).  This brings a
full 2 PB / 6-year trajectory with hundreds of thousands of groups down to
seconds.

Mechanics per run:

1. Size the system from the config; place all groups (vectorized).
2. Sample every drive's failure time from the bathtub hazard.
3. Drive a discrete-event loop of failures, detections, rebuild
   completions, redirections, and replacement batches.
4. A group with more than ``n - m`` concurrently-missing blocks is lost
   (a set-based scheme such as ``MirroredParity`` then also asks its
   survival predicate which blocks died).

Beyond the stochastic lifetime, the engine exposes a narrow hook surface
that is off by default: scripted disk deaths (:meth:`on_disk_failure`),
transient outages (:meth:`on_disk_offline` / :meth:`on_disk_online`),
latent sector errors (:meth:`corrupt_block` / :meth:`discover_latent`) and
stragglers (:meth:`set_bandwidth_factor`).  :mod:`repro.faults` and
:class:`~repro.reliability.scenarios.Scenario` drive them.  Until a hook is
used, a rebuild start pays one flag test for them and target selection
none at all.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..availability.luby import check_repair_lane
from ..availability.queue import RepairPriority, RepairPriorityQueue
from ..cluster.topology import Topology, enforce_domain_constraint
from ..cluster.workload import ConstantWorkload, DiurnalWorkload
from ..config import SystemConfig
from ..placement.copyset import CopysetPlacement
from ..placement.hashing import hash_unit
from ..placement.random_placement import RandomPlacement
from ..placement.rush import RushPlacement
from ..redundancy.composite import is_threshold_scheme
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.rng import RandomStreams
from ..telemetry.handle import Telemetry
from ..telemetry.probes import ProbeSample
from ..units import MINUTE

#: Salt for the deterministic per-disk SMART detection coin.
_SMART_SALT = 0x51AC
#: Salt for the deterministic per-disk SMART false-positive coin.
_SMART_FP_SALT = 0x51AD
#: Candidate disks probed per FARM target pick.
_PROBES = 24
#: Raw 32-bit words the probe sampler draws from its stream at a time.
_PROBE_BLOCK = 4096
#: Floor on a straggling rebuild's bandwidth multiplier.
_MIN_BANDWIDTH_FACTOR = 1e-3
#: The in-flight targets of a group with no rebuild in flight.
_NO_DISKS: frozenset[int] = frozenset()


@dataclass
class RecoveryStats:
    """Aggregate outcome of one simulated system lifetime."""

    rebuilds_started: int = 0
    rebuilds_completed: int = 0
    target_redirections: int = 0
    #: Rebuilds that swapped a source gone offline for a readable one.
    source_redirections: int = 0
    groups_lost: int = 0
    bytes_lost: float = 0.0
    first_loss_time: float | None = None
    disk_failures: int = 0
    window_total: float = 0.0     # sum of (rebuild completion - failure time)
    window_max: float = 0.0
    replacement_batches: int = 0
    blocks_migrated: int = 0
    #: Rebuilds that could not start (no target / no readable source) and
    #: were parked in the deferred-rebuild queue instead of being dropped.
    rebuilds_deferred: int = 0
    #: Subset of ``rebuilds_deferred`` parked because every otherwise
    #: admissible target was vetoed by the failure-domain placement cap
    #: (``max_chunks_per_domain``): the policy defers, never violates.
    rebuilds_deferred_constraint: int = 0
    #: Block losses where the group still held another live block in the
    #: failing disk's *rack* — placement left the group co-vulnerable to
    #: that domain.  Only counted under a non-flat topology.
    domain_colocated_losses: int = 0
    #: Deferred-rebuild retry attempts (backoff or re-arm firings).
    retries: int = 0
    #: Latent sector errors surfaced by a scrub or a rebuild read.
    latent_errors_discovered: int = 0
    #: Sum over discoveries of (discovery time - corruption time).
    latent_window_total: float = 0.0
    #: Transient outages processed (disk went offline and work redirected).
    transient_outages: int = 0
    #: Seconds of per-group *unavailability*: summed over closed degraded
    #: spans (first block failure -> full redundancy restored).  Spans
    #: still open at the horizon are closed when the run ends; spans
    #: ended by data loss are dropped — loss belongs to durability's
    #: ledger, not availability's (the telemetry span tracker aborts the
    #: same spans, keeping ``*_sum_total`` exactly equal to this field).
    unavail_group_seconds: float = 0.0
    #: Closed unavailability spans (horizon closures included).
    unavail_spans: int = 0
    #: Longest single unavailability span.
    unavail_max: float = 0.0
    #: Rebuilds parked by the lazy-recovery trigger
    #: (``recovery_threshold`` > 1), awaiting further failures.
    rebuilds_held: int = 0

    @property
    def any_loss(self) -> bool:
        return self.groups_lost > 0

    @property
    def mean_window(self) -> float:
        """Mean window of vulnerability over completed rebuilds."""
        if self.rebuilds_completed == 0:
            return 0.0
        return self.window_total / self.rebuilds_completed

    @property
    def mean_latent_window(self) -> float:
        """Mean time a latent error stayed undiscovered (0 if none found)."""
        if self.latent_errors_discovered == 0:
            return 0.0
        return self.latent_window_total / self.latent_errors_discovered

    def availability(self, n_groups: int, duration: float) -> float:
        """Fraction of group-seconds spent fully redundant, in [0, 1]."""
        from ..availability.metrics import availability_fraction
        return availability_fraction(self.unavail_group_seconds, n_groups,
                                     duration)

    def nines(self, n_groups: int, duration: float) -> float:
        """The run's availability as "nines" (inf for a clean run)."""
        from ..availability.metrics import availability_nines
        return availability_nines(self.availability(n_groups, duration))


@dataclass(frozen=True)
class PolicyConfig:
    """FARM target-selection constraints (paper §2.3), for ablations.

    The defaults are the paper's policy; relaxing either one swaps in
    :meth:`ReliabilitySimulation._pick_policy_target`, so the default
    target pick stays untouched.
    """

    #: constraint (b): never put two blocks of one group on a disk.
    forbid_buddy: bool = True
    #: soft preference for targets with no recovery write queued.
    prefer_idle: bool = True


class _TargetProbes:
    """FARM target probes drawn in blocks from the ``targets`` stream.

    Each :meth:`draw` returns what ``rng.integers(0, n, size=24).tolist()``
    would, and consumes the same stream words.  NumPy draws
    ``integers(0, n)`` (``n <= 2**32``) one ``next_uint32`` word ``u`` at a
    time by Lemire's method: ``u`` is dropped when ``(u * n) mod 2**32 <
    (2**32 - n) mod n``, and otherwise ``(u * n) >> 32`` is returned.
    ``integers(0, 2**32, dtype=uint64)`` returns those words unchanged, so
    applying the rule to a block of them gives every probe exactly, for
    one NumPy call per block instead of one per pick.

    Words drawn ahead stay buffered here.  Nothing else reads the stream,
    so the buffering cannot be observed.  When ``n`` changes (spares,
    replacement batches) the words not yet consumed are mapped again
    under the new bound.
    Consumption ends at the last accepted word handed out: words NumPy
    rejected after it belong to the next draw.
    """

    __slots__ = ("_rng", "_n", "_words", "_ends", "_values", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._n = 0                 # the bound _values were mapped for
        self._words = np.empty(0, dtype=np.uint64)
        #: one past the index in _words of each accepted word
        self._ends = np.empty(0, dtype=np.int64)
        self._values: list[int] = []
        self._next = 0              # values handed out since the mapping

    def draw(self, n: int) -> list[int]:
        """The next pick's probes, uniform over ``range(n)``."""
        if n == 1:
            return [0] * _PROBES    # NumPy consumes no word here either
        k = self._next
        if n != self._n or k + _PROBES > len(self._values):
            self._remap(n)
            k = 0
        self._next = k + _PROBES
        return self._values[k:k + _PROBES]

    def _remap(self, n: int) -> None:
        """Drop the consumed words and map the rest under bound ``n``,
        drawing blocks until one whole pick is accepted."""
        used = int(self._ends[self._next - 1]) if self._next else 0
        words = self._words[used:]
        threshold = ((1 << 32) - n) % n
        while True:
            scaled = words * np.uint64(n)
            ends = np.flatnonzero((scaled & 0xFFFFFFFF) >= threshold) + 1
            if ends.size >= _PROBES:
                break
            words = np.concatenate([words, self._rng.integers(
                0, 1 << 32, size=_PROBE_BLOCK, dtype=np.uint64)])
        self._n = n
        self._words = words
        self._ends = ends
        self._values = (scaled[ends - 1] >> 32).tolist()
        self._next = 0


@dataclass(eq=False)
class _Job:
    """In-flight rebuild (fast-engine record)."""

    __slots__ = ("g", "rep", "target", "failed_at", "event", "cancelled")

    g: int
    rep: int
    target: int
    failed_at: float
    event: object
    cancelled: bool


class FailureDraw(Protocol):
    """Replacement sampler for the failure ages of age-0 drives.

    :class:`~repro.reliability.scenarios.ScriptedFailures` installs one
    that never fails a drive, so every death in a scripted run is
    injected.
    """

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` failure ages."""
        ...


class ReliabilitySimulation:
    """One system lifetime on the flat-array engine.

    Read-only state view (for experiments, scenarios and injectors):
    ``alive[d]`` — disk ``d`` is reachable (neither dead nor in a
    transient outage); ``offline`` — disks in a transient outage;
    ``used_blocks[d]`` — blocks stored or reserved on ``d``;
    ``group_disks[g, rep]`` — the disk holding block ``rep`` of group
    ``g`` (-1 while failed); ``failed_count`` and ``lost`` per group;
    ``topology``; ``latent[d]`` — undiscovered latent errors on ``d``,
    ``(g, rep) -> corruption time``; ``bandwidth_factor[d]`` — straggler
    multipliers; and :meth:`blocks_on`, the disk -> blocks index.
    """

    def __init__(self, config: SystemConfig, seed: int = 0,
                 telemetry: Telemetry | None = None,
                 failure_draw: FailureDraw | None = None,
                 policy: PolicyConfig | None = None) -> None:
        self.cfg = config
        self.seed = seed
        self.streams = RandomStreams(seed)
        self.sim = Simulator()
        self.stats = RecoveryStats()
        #: Nullable observability handle; the disabled path is one `is not
        #: None` test per instrumentation site (pinned by the overhead
        #: benchmark), and per-disk rebuild-load tracking is only
        #: allocated when enabled.
        self.telemetry = telemetry
        #: Nullable failure-age hook: when set, disk failure ages come
        #: from it instead of the vintage's failure model.
        self.failure_draw = failure_draw
        #: Lazy-recovery threshold (1 = eager, the bit-identical default).
        self._lazy_r = config.recovery_threshold
        #: held rebuilds (lazy policy): g -> {rep: (failed_at, origin)}.
        self._held: dict[int, dict[int, tuple[float, int]]] = {}
        #: open per-group unavailability spans: g -> degraded-since.
        self._degraded_since: dict[int, float] = {}
        # Reject a rate-limited repair lane that cannot keep up with its
        # own failure inflow (the forecast service's 422 rail, applied at
        # engine construction).
        check_repair_lane(config)
        self.policy = policy or PolicyConfig()
        if self.policy != PolicyConfig():
            self._pick_farm_target = self._pick_policy_target

        # Fault hooks (see the module docstring): empty until used.
        #: disks in a transient outage (``alive`` is False meanwhile).
        self.offline: set[int] = set()
        #: disk -> {(g, rep): corruption time} of undiscovered errors.
        self.latent: dict[int, dict[tuple[int, int], float]] = {}
        #: disk -> straggler bandwidth multiplier (absent means 1.0).
        self.bandwidth_factor: dict[int, float] = {}
        #: set once any fault hook is used; a rebuild start tests it once.
        self._hooked = False

        scheme = config.scheme
        self.n = scheme.n
        self.m = scheme.m
        self.tol = scheme.tolerance
        #: set-based survival predicate, consulted only past ``tol``.
        self._is_lost = (None if is_threshold_scheme(scheme)
                         else scheme.is_lost)
        self.G = config.n_groups
        self.N0 = config.n_disks
        self.block_bytes = config.block_bytes
        self.recovery_bandwidth = config.recovery_bandwidth
        self.capacity_blocks = int(
            config.vintage.capacity_bytes // self.block_bytes)
        self.duration = config.duration
        if config.workload_peak_load > 0:
            self.workload = DiurnalWorkload(
                peak_load=config.workload_peak_load)
        else:
            self.workload = ConstantWorkload(0.0)
        #: A rebuild's transfer time at the recovery bandwidth when it does
        #: not depend on the start time (constant workload), else None.
        self._rebuild_s = (
            self.workload.time_to_transfer(self.block_bytes,
                                           self.recovery_bandwidth, 0.0)
            if isinstance(self.workload, ConstantWorkload)
            and self.recovery_bandwidth > 0 else None)

        self._build_state()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_state(self) -> None:
        cfg = self.cfg
        self.topology = Topology(cfg.racks, cfg.machines_per_rack, self.N0)
        self._domain_limit = cfg.max_chunks_per_domain
        if cfg.placement == "rush":
            placement = RushPlacement(self.N0, seed=self.streams.seed)
        elif cfg.placement == "copyset":
            placement = CopysetPlacement(self.N0, group_size=self.n,
                                         topology=self.topology,
                                         seed=self.streams.seed)
        else:
            placement = RandomPlacement(self.N0, seed=self.streams.seed)
        self.placement = placement
        matrix = placement.place_many(np.arange(self.G, dtype=np.int64),
                                      self.n)
        matrix = enforce_domain_constraint(matrix, self.topology,
                                           self._domain_limit, placement)
        self.group_disks = matrix.astype(np.int64)
        self.failed_count = np.zeros(self.G, dtype=np.int16)
        self.lost = np.zeros(self.G, dtype=bool)

        # Static disk index: block instance ids (g * n + rep) sorted by disk.
        flat = self.group_disks.ravel()
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=self.N0)
        self._idx_sorted = order
        self._idx_start = np.concatenate([[0], np.cumsum(counts)])
        #: disk -> blocks that moved there after t=0 (rebuilds, migration).
        self._dynamic: defaultdict[int, list[tuple[int, int]]] = \
            defaultdict(list)

        # Per-disk state (with headroom for spares / replacement batches).
        # The event handlers read alive/free_at/used_blocks one disk at a
        # time, so those are Python lists (a list read costs a fraction
        # of a NumPy scalar read); vectorized readers convert at entry.
        cap = self.N0 + max(64, self.N0 // 4)
        self._cap = cap
        pad = cap - self.N0
        self.alive = [True] * self.N0 + [False] * pad
        self.fail_time = np.full(cap, np.inf)
        self.free_at = [0.0] * cap
        self.used_blocks = counts.tolist() + [0] * pad
        self.deploy_time = np.zeros(cap)
        #: completed rebuild writes per disk (imbalance probe); allocated
        #: only when telemetry is enabled so the hot path stays untouched.
        self._rebuild_writes = (np.zeros(cap, dtype=np.int64)
                                if self.telemetry is not None else None)
        self.total_disks = self.N0

        rng = self.streams.get("disk-failures")
        self.fail_time[:self.N0] = self._sample_failure_ages(rng, self.N0)

        # Bookkeeping for recovery and replacement.
        # Dicts as ordered sets: redirects follow job creation order.
        self._jobs_by_target: defaultdict[int, dict[_Job, None]] = \
            defaultdict(dict)
        self._jobs_by_group: defaultdict[int, dict[_Job, None]] = \
            defaultdict(dict)
        self._spare_for: dict[int, int] = {}
        self._unreplaced = 0
        self._probes = _TargetProbes(self.streams.get("targets"))
        self.groups_lost_ids: list[int] = []
        #: deferred-rebuild queue: (g, rep) -> retry attempts so far.
        self._deferred: dict[tuple[int, int], int] = {}
        #: each parked rebuild's pending retry event.
        self._retry_events: dict[tuple[int, int], Event] = {}
        #: Whether the most recent admissibility sweep rejected at least
        #: one target solely on the failure-domain cap (so a resulting
        #: deferral is counted as constraint-caused).
        self._domain_blocked = False

    def _sample_failure_ages(self, rng: np.random.Generator,
                             size: int) -> np.ndarray:
        """Failure ages for a batch of age-0 drives (hook-aware)."""
        if self.failure_draw is not None:
            return self.failure_draw.sample(rng, size)
        return self.cfg.vintage.failure_model.sample_failure_age(rng, size)

    # ------------------------------------------------------------------ #
    # Disk-array growth (spares, batches)
    # ------------------------------------------------------------------ #
    def _grow(self, extra: int) -> None:
        need = self.total_disks + extra
        if need <= self._cap:
            return
        new_cap = max(need, self._cap * 2)
        pad = new_cap - self._cap

        def _extend(arr: np.ndarray, fill: float | bool | int) -> np.ndarray:
            return np.concatenate([arr, np.full(pad, fill, dtype=arr.dtype)])

        self.alive.extend([False] * pad)
        self.fail_time = _extend(self.fail_time, np.inf)
        self.free_at.extend([0.0] * pad)
        self.used_blocks.extend([0] * pad)
        self.deploy_time = _extend(self.deploy_time, 0.0)
        if self._rebuild_writes is not None:
            self._rebuild_writes = _extend(self._rebuild_writes, 0)
        self._cap = new_cap

    def _new_disks(self, count: int, now: float,
                   slot: int | None = None) -> np.ndarray:
        """Deploy ``count`` age-0 drives; returns their ids.

        ``slot`` names the failed disk whose bay the newcomers occupy
        (spares inherit its failure domain); batches tile round-robin.
        """
        self._grow(count)
        lo = self.total_disks
        ids = np.arange(lo, lo + count)
        self.total_disks += count
        for _ in range(count):
            self.topology.add_disk(slot_of=slot)
        self.alive[lo:lo + count] = [True] * count
        self.deploy_time[ids] = now
        rng = self.streams.get("disk-failures")
        ages = self._sample_failure_ages(rng, count)
        self.fail_time[ids] = now + ages
        for d, t in zip(ids, self.fail_time[ids]):
            if t <= self.duration:
                self.sim.schedule_at(float(t), self.on_disk_failure, int(d),
                                     name="disk-failure")
        return ids

    # ------------------------------------------------------------------ #
    # Block index
    # ------------------------------------------------------------------ #
    def _static_blocks(self, disk: int) -> tuple[np.ndarray, np.ndarray]:
        """(g, rep) arrays of the blocks placed on ``disk`` at t=0 that
        are still there, in block id order."""
        if disk >= self.N0:
            none = np.empty(0, dtype=np.int64)
            return none, none
        lo, hi = self._idx_start[disk], self._idx_start[disk + 1]
        g, rep = np.divmod(self._idx_sorted[lo:hi], self.n)
        here = self.group_disks[g, rep] == disk
        return g[here], rep[here]

    def _failing_blocks(self, disk: int) -> tuple[np.ndarray, np.ndarray]:
        """(g, rep) arrays of the blocks on ``disk``: its static entries
        in block id order, then its moved blocks in move order, each
        block once.  A block the index lists twice (moved away and back,
        or rebuilt onto its own disk) counts at its first entry."""
        g, rep = self._static_blocks(disk)
        moved = self._dynamic.get(disk)
        if not moved:
            return g, rep
        mg, mrep = np.array(moved, dtype=np.int64).T
        here = self.group_disks[mg, mrep] == disk
        g = np.concatenate([g, mg[here]])
        rep = np.concatenate([rep, mrep[here]])
        _, first = np.unique(g * self.n + rep, return_index=True)
        if first.size < g.size:
            first.sort()
            g, rep = g[first], rep[first]
        return g, rep

    # ------------------------------------------------------------------ #
    # Failure handling
    # ------------------------------------------------------------------ #
    def blocks_on(self, disk: int) -> list[tuple[int, int]]:
        """(g, rep) of every block currently on ``disk``, each once, in
        :meth:`_failing_blocks` order."""
        g, rep = self._failing_blocks(disk)
        return list(zip(g.tolist(), rep.tolist()))

    def on_disk_failure(self, disk: int) -> None:
        """DES callback: ``disk`` dies now (stochastic or scripted)."""
        if not self.alive[disk]:
            if disk not in self.offline:
                return          # already dead (stale or repeated event)
            self.offline.discard(disk)      # dies during its outage
        now = self.sim.now
        self.alive[disk] = False
        if self.latent:
            self.latent.pop(disk, None)     # superseded by the death
        self.stats.disk_failures += 1
        tele = self.telemetry
        if tele is not None:
            tele.disk_failures.inc()

        # Redirect in-flight rebuilds targeting the dead disk.
        for job in list(self._jobs_by_target.get(disk, ())):
            self._cancel(job)
            if self.lost[job.g]:
                continue
            self.stats.target_redirections += 1
            if tele is not None:
                tele.target_redirections.inc()
            self.sim.schedule(self.cfg.detection_latency, self._start_rebuild,
                              job.g, job.rep, job.failed_at, job.target,
                              name="redirect")

        groups, reps = self._fail_blocks(disk, now)
        if self._lazy_r > 1:
            self._lazy_dispatch(list(zip(groups, reps)), now, disk)
        elif groups:
            self.sim.schedule_many(
                self.cfg.detection_latency, self._start_rebuild,
                [(g, rep, now, disk) for g, rep in zip(groups, reps)],
                name="detect")
        self._maybe_replace(now)
        # A new batch may open constraint-compliant targets: retries for
        # deferred rebuilds are already armed, nothing extra to do here.

    def _fail_blocks(self, disk: int,
                     now: float) -> tuple[list[int], list[int]]:
        """Fail every block on the dead ``disk`` in one NumPy pass.

        Returns the blocks that need a rebuild as group and replica
        lists in index order (:meth:`_failing_blocks`).  Every block
        gets the verdict a walk in that order would give it.  A group's
        verdict reads only its own row, so one round decides all groups
        at once; a group with two blocks on the disk (possible only
        without the no-buddy constraint) is decided one block per round.
        Losses, new degradations and telemetry then apply in index
        order.
        """
        g, rep = self._failing_blocks(disk)
        k = g.size
        if not k:
            return [], []
        gd, lost, failed = self.group_disks, self.lost, self.failed_count
        count = np.zeros(k, dtype=np.int64)  # 0: the group was lost before
        dies = np.zeros(k, dtype=bool)       # the block loses its group
        topo = self.topology
        colocated = np.zeros(k, dtype=bool) if topo.racks > 1 else None
        for at in self._rounds(g):
            gi = g[at]
            gd[gi, rep[at]] = -1
            live = ~lost[gi]
            if colocated is not None:
                # Does the group keep a live block in the disk's rack?
                rows = gd[gi]
                in_rack = topo.rack_array()[rows] == topo.rack_of(disk)
                colocated[at] = live & ((rows >= 0) & in_rack).any(axis=1)
            c = failed[gi] + live
            failed[gi] = c
            over = live & (c > self.tol)
            if self._is_lost is not None:
                for j in np.flatnonzero(over).tolist():
                    over[j] = self._group_set_lost(int(gi[j]))
            lost[gi[over]] = True
            count[at] = np.where(live, c, 0)
            dies[at] = over

        tele = self.telemetry
        if colocated is not None:
            n_colocated = int(np.count_nonzero(colocated))
            self.stats.domain_colocated_losses += n_colocated
            if tele is not None and n_colocated:
                tele.domain_colocated_losses.inc(n_colocated)
        rebuild = (count > 0) & ~dies
        for grp in g[rebuild & (count == 1)].tolist():
            self._note_degraded(grp, now)
        groups, reps = g[rebuild].tolist(), rep[rebuild].tolist()
        if tele is not None:
            for grp, r in zip(groups, reps):
                tele.block_failed(grp, r, now, self.n)
        for j in np.flatnonzero(dies).tolist():
            self._lose_group(int(g[j]), now)
        return groups, reps

    @staticmethod
    def _rounds(g: np.ndarray) -> list[slice | np.ndarray]:
        """Index ``g`` by rounds in which no group repeats: round ``r``
        holds each group's ``r``-th position.  All of ``g`` is one round
        when no group repeats."""
        order = np.argsort(g, kind="stable")
        ordered = g[order]
        repeat = ordered[1:] == ordered[:-1]
        if not repeat.any():
            return [slice(None)]
        starts = np.flatnonzero(np.concatenate([[True], ~repeat]))
        sizes = np.diff(np.append(starts, g.size))
        nth = np.empty(g.size, dtype=np.int64)
        nth[order] = np.arange(g.size) - np.repeat(starts, sizes)
        return [np.flatnonzero(nth == r) for r in range(int(nth.max()) + 1)]

    def _group_set_lost(self, g: int) -> bool:
        """A set-based scheme's verdict on group ``g``'s failed blocks."""
        row = self.group_disks[g].tolist()
        return self._is_lost({rep for rep, d in enumerate(row) if d < 0})

    def _lose_group(self, g: int, now: float) -> None:
        """Group ``g`` just lost data."""
        self.lost[g] = True
        self.groups_lost_ids.append(g)
        self.stats.groups_lost += 1
        self.stats.bytes_lost += self.cfg.group_user_bytes
        if self.stats.first_loss_time is None:
            self.stats.first_loss_time = now
        self._degraded_since.pop(g, None)
        self._held.pop(g, None)
        if self.telemetry is not None:
            self.telemetry.group_lost(g)
        for job in list(self._jobs_by_group.get(g, ())):
            self._cancel(job)

    # ------------------------------------------------------------------ #
    # Lazy recovery (recovery_threshold > 1) and unavailability spans
    # ------------------------------------------------------------------ #
    def _lazy_dispatch(self, losses: list[tuple[int, int]], now: float,
                       origin: int) -> None:
        """Hold new losses until their group reaches the threshold, then
        release every held rebuild of the group most-at-risk-first.

        The trigger counts a group's failed blocks plus its replicas on
        disks in a transient outage (:meth:`_missing`).
        """
        fresh: list[int] = []
        seen: set[int] = set()
        for g, rep in losses:
            self._held.setdefault(g, {})[rep] = (now, origin)
            if g not in seen:
                seen.add(g)
                fresh.append(g)
        queue: RepairPriorityQueue = RepairPriorityQueue()
        released: set[int] = set()
        offline = self.offline
        for g in fresh:
            missing = int(self.failed_count[g])
            if offline:
                missing = self._missing(g)
            if missing >= self._lazy_r:
                released.add(g)
                self._collect_held(g, queue)
        n_held = sum(1 for g, _ in losses if g not in released)
        if n_held:
            self.stats.rebuilds_held += n_held
            if self.telemetry is not None:
                self.telemetry.rebuilds_held.inc(n_held)
        self._release_queue(queue, now)

    def _missing(self, g: int) -> int:
        """Blocks of ``g`` without a reachable replica: failed ones plus
        live ones on disks in a transient outage."""
        offline = self.offline
        return int(self.failed_count[g]) + sum(
            1 for d in self.group_disks[g].tolist() if d in offline)

    def _collect_held(self, g: int, queue: RepairPriorityQueue) -> None:
        missing = int(self.failed_count[g])
        if self.offline:
            missing = self._missing(g)
        surviving = max(0, self.tol - missing)
        for rep, (failed_at, origin) in sorted(self._held.pop(g, {}).items()):
            queue.push(RepairPriority(surviving, failed_at, g, rep),
                       (rep, failed_at, origin))

    def _release_queue(self, queue: RepairPriorityQueue,
                       now: float) -> None:
        tele = self.telemetry
        for prio, (rep, failed_at, origin) in queue.drain():
            g = prio.grp_id
            if self.lost[g] or self.group_disks[g, rep] != -1:
                continue
            if tele is not None:
                tele.held_released.inc()
            self.sim.schedule(self.cfg.detection_latency,
                              self._start_rebuild, g, rep, failed_at,
                              origin, name="detect")

    def _note_degraded(self, g: int, now: float) -> None:
        if g in self._degraded_since:
            return
        self._degraded_since[g] = now
        if self.telemetry is not None:
            self.telemetry.group_degraded(g, now, self.n)

    def _note_repaired(self, g: int, now: float) -> None:
        since = self._degraded_since.pop(g, None)
        if since is None:
            return
        duration = now - since
        stats = self.stats
        stats.unavail_group_seconds += duration
        stats.unavail_spans += 1
        if duration > stats.unavail_max:
            stats.unavail_max = duration
        if self.telemetry is not None:
            self.telemetry.group_restored(g, now)

    def _finalize(self, now: float) -> None:
        """Close spans still open at the horizon, in ascending group id
        (a fixed order keeps span totals deterministic)."""
        for g in sorted(self._degraded_since):
            self._note_repaired(g, now)

    # ------------------------------------------------------------------ #
    # Rebuild scheduling
    # ------------------------------------------------------------------ #
    def _start_rebuild(self, g: int, rep: int, failed_at: float,
                       origin: int) -> None:
        row = self.group_disks[g].tolist()
        deferred = self._deferred
        if self.lost[g] or row[rep] != -1:
            if deferred:
                deferred.pop((g, rep), None)
            return
        now = self.sim.now
        self._domain_blocked = False
        if self.cfg.use_farm:
            # Exclude targets of the group's other in-flight rebuilds so
            # two buddies never land on one disk.
            jobs = self._jobs_by_group.get(g)
            inflight = {j.target for j in jobs} if jobs else _NO_DISKS
            target = self._pick_farm_target(row, now, inflight)
        else:
            target = self._pick_spare_target(row, origin, now)
        if target is None:
            # No admissible target right now (system full, or every
            # candidate vetoed by the domain cap): park for retry with
            # exponential backoff — never drop, never violate.
            if self.telemetry is not None:
                self.telemetry.rebuilds_unplaced.inc()
            self._defer_rebuild(g, rep, failed_at, origin)
            return
        bandwidth = self.recovery_bandwidth
        if self._hooked:
            bandwidth = self._read_bandwidth(g, target, bandwidth)
            if bandwidth is None:
                if self.lost[g]:
                    deferred.pop((g, rep), None)
                else:       # no readable source until an outage ends
                    self._domain_blocked = False
                    self._defer_rebuild(g, rep, failed_at, origin)
                return
        if deferred:
            deferred.pop((g, rep), None)
        duration = self._rebuild_s
        if duration is None or bandwidth != self.recovery_bandwidth:
            duration = self.workload.time_to_transfer(
                self.block_bytes, bandwidth, now)
        start = max(now, self.free_at[target])
        completion = start + duration
        self.free_at[target] = completion
        job = _Job(g, rep, target, failed_at, None, False)
        job.event = self.sim.schedule_at(completion, self._complete, job,
                                         name="rebuild")
        self._jobs_by_target[target][job] = None
        self._jobs_by_group[g][job] = None
        # Reserve the block on the target immediately so concurrent
        # selections cannot collectively overflow it; _complete keeps the
        # count, cancellation releases it.
        self.used_blocks[target] += 1
        self.stats.rebuilds_started += 1
        if self.telemetry is not None:
            self.telemetry.rebuilds_started.inc()

    def _read_bandwidth(self, g: int, target: int,
                        bandwidth: float) -> float | None:
        """The hooked part of a rebuild start of a block of group ``g``.

        Reading the group's other live blocks surfaces their latent
        errors.  The rebuild then needs ``m`` readable sources (the first
        ``m`` reachable replicas) and runs at the rate of its slowest
        participant, target or source.  Returns the bandwidth, or None
        when the rebuild cannot run now: the group was lost to a
        discovered error, or too few replicas are reachable.
        """
        if self.latent:
            for rep, d in enumerate(self.group_disks[g].tolist()):
                if (g, rep) in self.latent.get(d, ()):
                    self.discover_latent(d, g, rep)
            if self.lost[g]:
                return None
        sources = self._sources(g)
        if len(sources) < self.m:
            return None
        factors = self.bandwidth_factor
        if factors:
            slowest = min(factors.get(d, 1.0) for d in sources + [target])
            bandwidth *= max(slowest, _MIN_BANDWIDTH_FACTOR)
        return bandwidth

    def _defer_rebuild(self, g: int, rep: int, failed_at: float,
                       origin: int) -> None:
        """Park a rebuild with no admissible target; retry with backoff.

        Counted once per parked block (``rebuilds_deferred``; plus the
        constraint counter when the domain cap caused it), each attempt
        counted as a retry.
        """
        key = (g, rep)
        attempts = self._deferred.get(key)
        if attempts is None:
            attempts = 0
            self.stats.rebuilds_deferred += 1
            if self._domain_blocked:
                self.stats.rebuilds_deferred_constraint += 1
            if self.telemetry is not None:
                self.telemetry.rebuilds_deferred.inc()
                if self._domain_blocked:
                    self.telemetry.rebuilds_deferred_constraint.inc()
        self._deferred[key] = attempts + 1
        # Pure doubling with the exponent clamped (~45 days at 16), so
        # thousands of hopelessly parked blocks on a full shrinking system
        # cannot dominate the event loop with periodic retries; a batch or
        # a returning disk re-arms them promptly (_rearm_deferred).
        delay = MINUTE * 2.0 ** min(attempts, 16)
        self._retry_events[key] = self.sim.schedule(
            delay, self._retry_rebuild, g, rep, failed_at, origin,
            name="rebuild-retry")

    def _rearm_deferred(self) -> None:
        """Retry every parked rebuild now, with a fresh backoff.

        Called when the world changed in recovery's favour: a replacement
        batch arrived, or a disk returned from a transient outage.  Lazy
        policies re-arm most-at-risk-first (the release queue's order),
        the eager path in parking order.
        """
        pending = [ev for ev in map(self._retry_events.get, self._deferred)
                   if ev is not None]
        if self._lazy_r > 1:
            pending.sort(key=lambda ev: (
                max(0, self.tol - self._missing(ev.args[0])),
                ev.args[2], ev.args[0], ev.args[1]))
        for ev in pending:
            ev.cancel()
            g, rep, failed_at, origin = ev.args
            self._deferred[(g, rep)] = 0
            self._retry_events[(g, rep)] = self.sim.schedule(
                0.0, self._retry_rebuild, g, rep, failed_at, origin,
                name="rebuild-retry")

    def _retry_rebuild(self, g: int, rep: int, failed_at: float,
                       origin: int) -> None:
        if (g, rep) not in self._deferred:
            return      # resolved by an earlier retry/redirect
        if self.lost[g] or self.group_disks[g, rep] != -1:
            self._deferred.pop((g, rep), None)
            return
        self.stats.retries += 1
        if self.telemetry is not None:
            self.telemetry.rebuild_retries.inc()
        self._start_rebuild(g, rep, failed_at, origin)

    def _admissible(self, d: int, row: list[int],
                    exclude: set[int] = frozenset()) -> bool:
        """May a block of the group whose disks are ``row`` (its
        ``group_disks`` row as a list, read once per pick) go on ``d``?"""
        if (d in exclude
                or not self.alive[d]
                or self.used_blocks[d] >= self.capacity_blocks
                or d in row):
            return False
        if self._domain_limit is not None \
                and not self._domain_ok(d, row, exclude):
            self._domain_blocked = True
            return False
        return True

    def _domain_ok(self, d: int, row: list[int], exclude: set[int]) -> bool:
        """Would placing a block of the group on ``d`` stay within the
        per-rack cap?  Counts the group's live blocks plus in-flight
        rebuild targets (``exclude``) already in ``d``'s rack."""
        topo = self.topology
        rack = topo.rack_of(d)
        count = 0
        for dd in row:
            if dd >= 0 and topo.rack_of(dd) == rack:
                count += 1
        for dd in exclude:
            if dd != d and topo.rack_of(int(dd)) == rack:
                count += 1
        return count < self._domain_limit

    def _pick_farm_target(self, row: list[int], now: float,
                          exclude: set[int] = frozenset()) -> int | None:
        """Rejection-sample the candidate list: alive, space, no buddy;
        prefer recovery-idle disks, then relax (paper §2.3)."""
        fallback = -1
        for d in self._probes.draw(self.total_disks):
            if not self._admissible(d, row, exclude):
                continue
            if self.free_at[d] <= now and not self._smart_suspect(d, now):
                return d
            if fallback < 0:
                fallback = d
        if fallback >= 0:
            return fallback
        for d in range(self.total_disks):       # degenerate small systems
            if self._admissible(d, row, exclude):
                return d
        return None

    def _pick_policy_target(self, row: list[int], now: float,
                            exclude: set[int] = frozenset()) -> int | None:
        """:meth:`_pick_farm_target` under a relaxed :class:`PolicyConfig`
        (installed in its place by the constructor)."""
        policy = self.policy
        fallback = -1
        for d in self._probes.draw(self.total_disks):
            if not self._policy_admissible(d, row, exclude):
                continue
            if (not policy.prefer_idle or self.free_at[d] <= now) \
                    and not self._smart_suspect(d, now):
                return d
            if fallback < 0:
                fallback = d
        if fallback >= 0:
            return fallback
        for d in range(self.total_disks):
            if self._policy_admissible(d, row, exclude):
                return d
        return None

    def _policy_admissible(self, d: int, row: list[int],
                           exclude: set[int]) -> bool:
        if self.policy.forbid_buddy:
            return self._admissible(d, row, exclude)
        # Buddy check off: only liveness, space and the domain cap.
        if d in exclude or not self.alive[d] \
                or self.used_blocks[d] >= self.capacity_blocks:
            return False
        if self._domain_limit is not None \
                and not self._domain_ok(d, row, exclude):
            self._domain_blocked = True
            return False
        return True

    def _smart_suspect(self, d: int, now: float) -> bool:
        """SMART veto: a drive is flagged spuriously with the
        false-positive rate (decided once per disk), and flagged for real
        — with the detection probability — inside the warning horizon of
        its actual failure.  Both coins are deterministic per
        ``(seed, disk)``."""
        cfg = self.cfg
        if not cfg.use_smart:
            return False
        if hash_unit(self.seed, d, _SMART_FP_SALT) \
                < cfg.smart_false_positive_rate:
            return True
        if self.fail_time[d] - now > cfg.smart_warning_horizon:
            return False
        return bool(hash_unit(self.seed, d, _SMART_SALT)
                    < cfg.smart_detection_probability)

    def _pick_spare_target(self, row: list[int], origin: int,
                           now: float) -> int | None:
        """Traditional RAID: one dedicated spare per failed disk.

        ``origin`` is the disk whose loss caused this rebuild (or the dead
        spare, for redirections), so all of one disk's reconstruction work
        queues on the same spare.  A second "overflow" spare handles the
        rare case where the spare already holds a buddy of this group.
        """
        spare = self._spare_for.get(origin, -1)
        if spare < 0 or not self.alive[spare] or \
                self.used_blocks[spare] >= self.capacity_blocks:
            # The spare goes into the failed disk's bay, inheriting its
            # failure domain — rebuilding onto it never changes the
            # group's per-rack block counts.
            spare = int(self._new_disks(1, now, slot=origin)[0])
            self._spare_for[origin] = spare
            if self.telemetry is not None:
                self.telemetry.spares_provisioned.inc()
        if spare in row:
            over = self._spare_for.get(~origin, -1)
            if over < 0 or not self.alive[over] or \
                    not self._admissible(over, row):
                over = int(self._new_disks(1, now, slot=origin)[0])
                self._spare_for[~origin] = over
                if self.telemetry is not None:
                    self.telemetry.spares_provisioned.inc()
            return over
        return spare

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _cancel(self, job: _Job) -> None:
        job.cancelled = True
        if job.event is not None:
            job.event.cancel()
        by_target = self._jobs_by_target[job.target]
        if job in by_target:
            del by_target[job]
            self.used_blocks[job.target] -= 1    # release the reservation
        self._jobs_by_group[job.g].pop(job, None)

    def _complete(self, job: _Job) -> None:
        g, target = job.g, job.target
        if job.cancelled or self.lost[g]:
            return
        self._jobs_by_target[target].pop(job, None)
        self._jobs_by_group[g].pop(job, None)
        if not self.alive[target] or (
                target in self.group_disks[g].tolist()
                and self.policy.forbid_buddy):
            # Defensive: redirection/exclusion should have caught this.
            self.used_blocks[target] -= 1    # release the reservation
            self.stats.target_redirections += 1
            if self.telemetry is not None:
                self.telemetry.target_redirections.inc()
            self.sim.schedule(self.cfg.detection_latency,
                              self._start_rebuild, g, job.rep,
                              job.failed_at, target, name="redirect")
            return
        now = self.sim.now
        self.group_disks[g, job.rep] = target
        left = int(self.failed_count[g]) - 1
        self.failed_count[g] = left
        # used_blocks[target] was already incremented at reservation time.
        self._dynamic[target].append((g, job.rep))
        stats = self.stats
        stats.rebuilds_completed += 1
        window = now - job.failed_at
        stats.window_total += window
        if window > stats.window_max:
            stats.window_max = window
        if self.telemetry is not None:
            self.telemetry.rebuilds_completed.inc()
            self.telemetry.block_rebuilt(g, job.rep, now)
            self._rebuild_writes[target] += 1
        if left == 0:
            self._note_repaired(g, now)

    # ------------------------------------------------------------------ #
    # Replacement batches (Figure 7)
    # ------------------------------------------------------------------ #
    def _maybe_replace(self, now: float) -> None:
        self._unreplaced += 1
        theta = self.cfg.replacement_threshold
        if theta is None or self._unreplaced < theta * self.N0:
            return
        count = self._unreplaced
        self._unreplaced = 0
        new_ids = self._new_disks(count, now)
        self.stats.replacement_batches += 1
        if self.telemetry is not None:
            self.telemetry.replacement_batches.inc()
        self._migrate(new_ids, now)
        if self._deferred:
            # Fresh capacity: parked rebuilds need not wait out backoff.
            self._rearm_deferred()

    def _migrate(self, new_ids: np.ndarray, now: float) -> None:
        """Rebalance a fair share of live blocks onto the new batch."""
        rng = self.streams.get("migration")
        live_disks = self.alive[:self.total_disks].count(True)
        share = len(new_ids) / max(1, live_disks)
        movable = self.group_disks >= 0
        if self.offline:
            # Transiently unreachable blocks cannot be read to move.
            movable &= ~np.isin(self.group_disks, list(self.offline))
        move = movable & (rng.random(self.group_disks.shape) < share)
        if not move.any():
            return
        rows, cols = np.nonzero(move)
        targets = rng.choice(new_ids, size=rows.size)
        # Reject moves that would co-locate two blocks of one group:
        # against the group's current disks ...
        gd = self.group_disks
        ok = np.ones(rows.size, dtype=bool)
        for j in range(self.n):
            ok &= gd[rows, j] != targets
        # ... and against other moves of the same group in this batch.
        key = rows.astype(np.int64) * np.int64(self._cap + 1) + targets
        _, first = np.unique(key, return_index=True)
        dedup = np.zeros(rows.size, dtype=bool)
        dedup[first] = True
        ok &= dedup
        rows, cols, targets = rows[ok], cols[ok], targets[ok]
        if rows.size == 0:
            return
        # Failure-domain cap: reject moves that would push a group's
        # per-rack block count to the limit or beyond.  Counting excludes
        # the moving block's own column; at most one move per (group,
        # target rack) is admitted per batch so concurrent moves cannot
        # collectively overflow a rack (conservative, never violates).
        if self._domain_limit is not None and self.topology.racks > 1:
            k = self._domain_limit
            rack_arr = self.topology.rack_array()
            target_rack = rack_arr[targets]
            cnt = np.zeros(rows.size, dtype=np.int64)
            for j in range(self.n):
                dd = gd[rows, j]
                live = dd >= 0
                same = np.zeros(rows.size, dtype=bool)
                same[live] = rack_arr[dd[live]] == target_rack[live]
                cnt += same & (cols != j)
            rack_key = rows.astype(np.int64) * np.int64(
                self.topology.racks) + target_rack
            _, first_rk = np.unique(rack_key, return_index=True)
            one_per_rack = np.zeros(rows.size, dtype=bool)
            one_per_rack[first_rk] = True
            fit_domain = (cnt < k) & one_per_rack
            rows, cols, targets = (rows[fit_domain], cols[fit_domain],
                                   targets[fit_domain])
            if rows.size == 0:
                return
        # Capacity: a batch drive only takes what fits, and rebalancing
        # is placement, so it leaves the spare reserve (paper §3.1, in
        # whole blocks) to recovery.  Admit moves in row order until each
        # target is full (``used_blocks`` already counts in-flight
        # rebuild reservations).
        order = np.argsort(targets, kind="stable")
        sorted_t = targets[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_t)) + 1])
        sizes = np.diff(np.concatenate([starts, [sorted_t.size]]))
        rank_in_target = np.arange(sorted_t.size) - np.repeat(starts, sizes)
        used = np.array(self.used_blocks, dtype=np.int64)
        reserve = int(self.capacity_blocks * self.cfg.spare_reserve_fraction)
        room = self.capacity_blocks - reserve - used[sorted_t]
        fits = np.zeros(targets.size, dtype=bool)
        fits[order] = rank_in_target < room
        rows, cols, targets = rows[fits], cols[fits], targets[fits]
        if rows.size == 0:
            return
        old = gd[rows, cols]
        gd[rows, cols] = targets
        if self.latent:
            # A moved block is rewritten from a clean replica: a latent
            # error in the abandoned copy dies with it.
            for r, c, d in zip(rows.tolist(), cols.tolist(), old.tolist()):
                errors = self.latent.get(d)
                if errors is not None:
                    errors.pop((r, c), None)
                    if not errors:
                        del self.latent[d]
        # Utilization bookkeeping.
        dec = np.bincount(old, minlength=self._cap)
        inc = np.bincount(targets, minlength=self._cap)
        used -= dec[:self._cap]
        used += inc[:self._cap]
        self.used_blocks = used.tolist()
        for r, c, t in zip(rows.tolist(), cols.tolist(), targets.tolist()):
            self._dynamic[t].append((r, c))
        self.stats.blocks_migrated += rows.size
        if self.telemetry is not None:
            self.telemetry.blocks_migrated.inc(int(rows.size))

    # ------------------------------------------------------------------ #
    # Telemetry probe (read-only; never perturbs the failure process)
    # ------------------------------------------------------------------ #
    def _telemetry_sample(self) -> ProbeSample:
        now = self.sim.now
        total = self.total_disks
        alive = np.array(self.alive[:total], dtype=bool)
        n_alive = int(alive.sum())
        busy_mask = alive & (np.array(self.free_at[:total]) > now)
        busy = int(np.count_nonzero(busy_mask))
        cap = self.cfg.recovery_bandwidth
        by_rack: dict[str, float] = {}
        if self.topology.racks > 1 and busy:
            rack_arr = self.topology.rack_array()
            rack_busy = np.bincount(rack_arr[np.flatnonzero(busy_mask)],
                                    minlength=self.topology.racks)
            for r, c in enumerate(rack_busy.tolist()):
                if c:
                    by_rack[str(r)] = c * cap
        degraded = int(np.count_nonzero((self.failed_count > 0)
                                        & ~self.lost))
        if self._rebuild_writes is not None and n_alive > 0:
            loads = self._rebuild_writes[:total][alive]
            load_max = float(loads.max())
            load_mean = float(loads.mean())
        else:
            load_max = load_mean = 0.0
        return ProbeSample(
            bandwidth_in_use_bps=busy * cap,
            disk_bandwidth_max_bps=cap if busy else 0.0,
            bandwidth_cap_bps=cap,
            disks_by_state=self._disk_states(n_alive, total),
            degraded_groups=degraded,
            deferred_rebuilds=len(self._deferred),
            rebuild_load_max=load_max,
            rebuild_load_mean=load_mean,
            bandwidth_by_rack=by_rack)

    def _disk_states(self, n_alive: int, total: int) -> dict[str, int]:
        if not self.offline:
            return {"online": n_alive, "failed": total - n_alive}
        n_off = len(self.offline)
        return {"online": n_alive, "offline": n_off,
                "failed": total - n_alive - n_off}

    # ------------------------------------------------------------------ #
    # Fault hooks (repro.faults, Scenario).  Each enters the same handlers
    # the stochastic lifetime uses; none is called on the default path.
    # ------------------------------------------------------------------ #
    def on_disk_offline(self, disk: int) -> None:
        """DES callback: ``disk`` becomes temporarily unreachable.

        No data is lost.  Rebuilds writing to the disk restart elsewhere
        (a target redirection); rebuilds reading from it swap to another
        readable replica (a source redirection), or park in the deferred
        queue when fewer than ``m`` readable replicas remain.
        """
        if not self.alive[disk]:
            return          # already offline or dead (stale event)
        self._hooked = True
        now = self.sim.now
        tele = self.telemetry
        # Readers first, while the disk still counts as readable.
        readers: dict[int, list[_Job]] = {}
        for g, _ in self.blocks_on(disk):
            jobs = self._jobs_by_group.get(g)
            if jobs and g not in readers and not self.lost[g] \
                    and disk in self._sources(g):
                readers[g] = sorted(jobs, key=lambda j: j.rep)
        self.alive[disk] = False
        self.offline.add(disk)
        self.stats.transient_outages += 1
        if tele is not None:
            tele.transient_outages.inc()

        for job in list(self._jobs_by_target.get(disk, ())):
            self._cancel(job)
            if self.lost[job.g]:
                continue
            self.stats.target_redirections += 1
            if tele is not None:
                tele.target_redirections.inc()
            self.sim.schedule(self.cfg.detection_latency, self._start_rebuild,
                              job.g, job.rep, job.failed_at, job.target,
                              name="redirect")

        self._domain_blocked = False
        for g, jobs in readers.items():
            readable = len(self._sources(g)) >= self.m
            for job in jobs:
                if job.cancelled:
                    continue
                if readable:
                    self.stats.source_redirections += 1
                    if tele is not None:
                        tele.source_redirections.inc()
                else:
                    self._cancel(job)
                    self._defer_rebuild(g, job.rep, job.failed_at,
                                        self._origin_of(job))

        # Unreachable replicas count toward the lazy trigger: a group
        # whose held rebuilds plus offline replicas reach the threshold
        # releases now (its rebuilds may still park until a source
        # returns — the deferred queue drains them).
        if self._lazy_r > 1 and self._held:
            queue: RepairPriorityQueue = RepairPriorityQueue()
            for g in sorted(self._held):
                if self._missing(g) >= self._lazy_r:
                    self._collect_held(g, queue)
            self._release_queue(queue, now)

    def on_disk_online(self, disk: int) -> None:
        """DES callback: a transient outage ends and the disk's data is
        back.  Stale if the disk died meanwhile.  Parked rebuilds are
        re-armed: the disk may hold the only readable source, or be an
        acceptable target again."""
        if disk not in self.offline:
            return
        self.offline.discard(disk)
        self.alive[disk] = True
        if self._deferred:
            self._rearm_deferred()

    def corrupt_block(self, disk: int,
                      rng: np.random.Generator) -> tuple[int, int] | None:
        """Silently corrupt one live, not-yet-corrupt block on ``disk``,
        chosen uniformly with ``rng``.

        Returns the corrupted ``(g, rep)``, or None when ``disk`` is not
        reachable or holds no such block.  Nothing observes the error
        until a scrub or a rebuild read calls :meth:`discover_latent`.
        """
        if not self.alive[disk]:
            return None
        errors = self.latent.get(disk, {})
        candidates = [b for b in self.blocks_on(disk) if b not in errors]
        if not candidates:
            return None
        self._hooked = True
        hit = candidates[int(rng.integers(len(candidates)))]
        errors[hit] = self.sim.now
        self.latent[disk] = errors
        if self.telemetry is not None:
            self.telemetry.latent_injected.inc()
        return hit

    def discover_latent(self, disk: int, g: int, rep: int) -> bool:
        """A scrub or rebuild read found the latent error of block
        ``(g, rep)`` on ``disk``: fail the block and dispatch an ordinary
        rebuild (through the lazy trigger).  Returns True when the call
        discovered a still-relevant error."""
        errors = self.latent.get(disk)
        corrupted_at = errors.pop((g, rep), None) if errors else None
        if corrupted_at is None:
            return False
        if not errors:
            del self.latent[disk]
        if self.lost[g] or self.group_disks[g, rep] != disk:
            return False        # superseded (moved away or lost)
        now = self.sim.now
        tele = self.telemetry
        self.group_disks[g, rep] = -1
        self.used_blocks[disk] -= 1
        self.stats.latent_errors_discovered += 1
        self.stats.latent_window_total += now - corrupted_at
        if tele is not None:
            tele.latent_discovered.inc()
            tele.latent_window_seconds.inc(now - corrupted_at)
        count = int(self.failed_count[g]) + 1
        self.failed_count[g] = count
        if count > self.tol and (self._is_lost is None
                                 or self._group_set_lost(g)):
            self._lose_group(g, now)     # no redundancy was left
            return True
        if count == 1:
            self._note_degraded(g, now)
        if tele is not None:
            tele.block_failed(g, rep, now, self.n)
        if self._lazy_r > 1:
            self._lazy_dispatch([(g, rep)], now, disk)
        else:
            self.sim.schedule(self.cfg.detection_latency, self._start_rebuild,
                              g, rep, now, disk, name="detect")
        return True

    def set_bandwidth_factor(self, disk: int, factor: float) -> None:
        """Make ``disk`` a straggler: rebuilds it takes part in run at
        ``factor`` times the recovery bandwidth (slowest participant)."""
        self._hooked = True
        self.bandwidth_factor[disk] = factor

    def _sources(self, g: int) -> list[int]:
        """The disks a rebuild of group ``g`` reads: its first ``m``
        reachable replicas."""
        alive = self.alive
        return [d for d in self.group_disks[g].tolist()
                if d >= 0 and alive[d]][:self.m]

    def _origin_of(self, job: _Job) -> int:
        """The failed disk whose spare ``job`` writes to (traditional
        recovery queues each disk's rebuilds on one spare); FARM ignores
        the origin."""
        for origin, spare in self._spare_for.items():
            if spare == job.target:
                return origin if origin >= 0 else ~origin
        return job.target

    # ------------------------------------------------------------------ #
    def _schedule_initial_failures(self) -> None:
        for d in range(self.N0):
            t = self.fail_time[d]
            if t <= self.duration:
                self.sim.schedule_at(float(t), self.on_disk_failure, d,
                                     name="disk-failure")

    def run(self) -> RecoveryStats:
        """Execute the full lifetime; returns the statistics."""
        if self.telemetry is not None:
            self.telemetry.attach_probes(self.sim, self._telemetry_sample,
                                         until=self.duration)
        self._schedule_initial_failures()
        self.sim.run(until=self.duration)
        self._finalize(self.duration)
        return self.stats
