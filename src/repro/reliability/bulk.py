"""Bulk-lifetime Monte-Carlo engine (the second engine: vectorized, no events).

The DES (:mod:`repro.reliability.simulation`) replays every
failure/detect/rebuild event of a lifetime; a 2 PB trajectory costs
hundreds of thousands of Python event dispatches.  The fleet-scale
sweeps the ROADMAP calls for (10^4-point design grids) need orders of
magnitude more naive-MC throughput, and the paper's loss statistic does
not actually require an event loop: a group is lost iff, at some
instant, more than ``n - m`` of its blocks are missing — a pure
*window-overlap* predicate over per-block (failure time, repair time)
intervals.  This engine draws all of those quantities in batches with
:class:`numpy.random.Generator` and resolves the predicate with array
ops:

1. one lifetime per disk from the bathtub hazard (``bulk-failures``),
   inverted only for the disks whose uniform can fail in-horizon
   (:meth:`~repro.disks.failure.BathtubFailureModel.sample_failed_within`);
2. the failed blocks of every group under uniform distinct-``n``
   placement (``bulk-placement``).  For flat placement this is sampled
   *sparsely*: per-group failed-block counts are hypergeometric given the
   failed-disk set and groups are exchangeable, so one multinomial draw
   tallies the groups per count and uniform distinct failed-disk
   assignments fill them in — provably the same distribution as
   materializing all ``G * n`` memberships (the dense sampler,
   :func:`sample_members_flat`, survives as the property-test oracle).
   A FARM lifetime whose every failed disk rebuilds in-horizon needs
   only the tally of the groups with one failed block: the stream is
   advanced past their section instead of drawing it.  The rack-capped
   topology case keeps the dense draw (:func:`sample_members_capped`),
   where the cap skews the counts;
3. a repair window per *failed* block: FARM rebuilds are parallel, so the
   window is ``detection_latency + rebuild_seconds_per_block``;
   traditional rebuilds queue a dead disk's blocks serially on its
   dedicated spare, so the window is
   ``detection_latency + pos * rebuild_seconds_per_block`` with ``pos``
   uniform over the disk's hosted blocks (``bulk-windows``).  A failed
   disk's hosted blocks are exactly its failed blocks, so the queue
   length needs no dense membership either;
4. group loss iff the per-group count of concurrently open
   ``[failure, repair)`` intervals ever exceeds the scheme tolerance.
   Groups holding at most ``tolerance`` failed blocks can never be
   lost, so their rebuilds are counted per failed disk, or from the
   tallies alone when every failed disk of a FARM lifetime rebuilds
   in-horizon; only the traditional windows' float sum stays per block,
   to keep its summation order.  A group holding exactly
   ``tolerance + 1`` is lost iff its last failure comes before its
   first repair, at that failure (:func:`all_open_loss_times`); larger
   counts go through the overlap count (:func:`group_loss_times`).
   Only the exception rows of these sections, groups lost or holding a
   repair past the horizon, get per-block started and completed masks:
   every other group starts and completes each rebuild.

**Model vs DES** (docs/BULK_ENGINE.md derives the error terms): the engine
is *first-generation* — blocks rebuilt onto a new disk are not re-failed
when that disk later dies, spare disks' own failures are not counted, and
FARM target-queue collisions are ignored.  All of these are
O(failure-rate²) corrections, far inside the Monte-Carlo CI at the
paper's rates, and the conformance suite (``tests/test_bulk.py``) asserts
CI overlap against the DES on the golden FARM and traditional
scenarios.  Features with first-order trajectory effects the predicate
cannot express — replacement batches, SMART steering, diurnal workload,
rush/copyset placement, lazy recovery, set-based survival schemes — are
rejected at construction (the bulk column of
:mod:`repro.reliability.envelope`) rather than silently approximated.

All randomness comes from the dedicated, golden-pinned ``bulk-*`` family
(:data:`repro.sim.rng.BULK_STREAM_KINDS`), so a bulk run never perturbs a
DES run with the same seed.  Each Monte-Carlo run vectorizes *within* the
lifetime and uses its own seed from the shared schedule, and the runner
folds runs in run-index order, so any batch split folds to bit-identical
aggregates.
"""

from __future__ import annotations

from math import comb

import numpy as np

from ..availability.luby import check_repair_lane
from ..cluster.topology import Topology
from ..config import SystemConfig
from ..sim.rng import RandomStreams
from .envelope import BULK, refusals
from .simulation import RecoveryStats

#: Rejection-sampling ceiling for the distinct-membership redraw.  The
#: per-row collision probability is <= n^2 / (2 N) (and the cramped-pool
#: regimes where rejection would thrash fall back to a key sort), so this
#: only exists to turn a degenerate geometry into a loud error.
_MAX_REDRAWS = 64

#: Engines the sweep runner can dispatch a lifetime to.
ENGINES: tuple[str, ...] = ("des", "bulk")


def group_loss_times(fail: np.ndarray, repair: np.ndarray,
                     tolerance: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized group-loss predicate over half-open ``[fail, repair)``.

    ``fail``/``repair`` are ``(..., n)`` arrays of per-block failure and
    repair times, with ``inf`` marking a block that never fails (its
    repair must then be ``inf`` too).  A group is lost iff more than
    ``tolerance`` intervals are ever open at once; the maximum overlap of
    a finite interval family is attained at some interval's left endpoint,
    so it suffices to count, for each block ``j``, how many intervals
    cover ``fail[j]``.  Ties count both sides: a block failing at the
    exact instant another's repair *starts to matter* is concurrent, which
    matches the DES (a failure event at time t sees every block
    whose rebuild has not completed strictly before t).

    Returns ``(lost, when)``: a boolean loss mask over the leading axes
    and the loss instant (``inf`` where not lost).  The blocks are moved
    to a contiguous leading axis first, so block ``j`` is compared with
    whole columns and the count adds up ``n`` rows (``n`` is at most a
    dozen) instead of reducing a short, strided trailing axis.
    """
    lead = tuple(range(fail.ndim - 1))
    fails = fail.transpose(-1, *lead).copy()              # (n, ...)
    repairs = repair.transpose(-1, *lead).copy()
    lost = np.zeros(fail.shape[:-1], dtype=bool)
    when = np.full(fail.shape[:-1], np.inf)
    for tj in fails:
        # A never-failed block has tj = inf: `tj < repair` is then false
        # everywhere, so its count is 0 and it can never trigger a loss.
        concurrent = ((fails <= tj) & (tj < repairs)).sum(axis=0)
        hit = concurrent > tolerance
        lost |= hit
        when = np.where(hit, np.minimum(when, tj), when)
    return lost, when


def all_open_loss_times(fail: np.ndarray, repair: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`group_loss_times` in closed form for ``(G, k)`` groups
    whose ``k`` blocks all fail, at ``tolerance = k - 1``.

    Such a group is lost iff all ``k`` of its ``[fail, repair)``
    windows are open at once, which happens iff its last failure comes
    before its first repair; the loss instant is that last failure.  The
    maximum and minimum run column by column, because a reduction over
    the short trailing axis is slow.  Returns ``(lost, when)`` as
    :func:`group_loss_times` does.
    """
    last = fail[:, 0]
    first_repair = repair[:, 0]
    for j in range(1, fail.shape[1]):
        last = np.maximum(last, fail[:, j])
        first_repair = np.minimum(first_repair, repair[:, j])
    lost = last < first_repair
    return lost, np.where(lost, last, np.inf)


def hypergeom_pmf(n_slots: int, n_failed: int, n_disks: int) -> np.ndarray:
    """PMF of a group's failed-block count under flat distinct placement.

    A group places ``n_slots`` blocks on distinct uniform disks; with
    ``n_failed`` of the ``n_disks`` disks failed, the number landing on
    failed disks is hypergeometric.  Exact integer combinatorics (group
    sizes are tiny), entry ``k`` = P(count == k) for ``k in 0..n_slots``.
    """
    total = comb(n_disks, n_slots)
    return np.array([comb(n_failed, k) * comb(n_disks - n_failed,
                                              n_slots - k) / total
                     for k in range(n_slots + 1)])


def _duplicate_rows(m: np.ndarray) -> np.ndarray:
    """Mask of rows holding some entry twice.

    Pairwise column compares instead of a row sort: group sizes are tiny
    (n <= a dozen) while the row count is 10^4-10^5, so n(n-1)/2 vector
    compares beat an O(G n log n) sort by ~10x on the hot path.
    """
    n = m.shape[1]
    dup = np.zeros(m.shape[0], dtype=bool)
    for j in range(1, n):
        for k in range(j):
            dup |= m[:, j] == m[:, k]
    return dup


def distinct_uniform(rng: np.random.Generator, n_rows: int, k: int,
                     n_vals: int,
                     out: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> np.ndarray:
    """``(n_rows, k)`` rows of distinct uniform draws from ``0..n_vals-1``.

    Ordered tuples are drawn uniformly (``floor(u * n_vals)`` — exactly
    uniform at these magnitudes and far cheaper than a bounded integer
    draw) and rejected until distinct, which is exactly uniform over
    distinct tuples.  Cramped pools, where rejection would thrash, fall
    back to a per-row uniform ``k``-subset via random sort keys; block
    slots are exchangeable everywhere downstream, so the unordered subset
    has the same law.

    ``out`` is a ``(uniforms, result)`` pair of contiguous float64 and
    int64 arrays of ``n_rows * k`` elements for the tuple draw to write
    into instead of fresh arrays; the rows returned are then a view of
    ``result``.  The draw consumes the same stream words either way.
    The cramped-pool fallback never takes it.
    """
    if k > n_vals:
        raise ValueError(f"cannot draw {k} distinct values from {n_vals}")
    if k > 1 and n_vals <= 4 * k:
        keys = rng.random((n_rows, n_vals))
        return np.argpartition(keys, k - 1, axis=1)[:, :k].astype(np.int64)
    u, m = out if out is not None else (
        np.empty(n_rows * k), np.empty(n_rows * k, dtype=np.int64))
    rng.random(out=u)
    u *= n_vals
    np.copyto(m, u, casting="unsafe")           # truncates, as `astype` does
    m = m.reshape(n_rows, k)
    if k == 1:
        return m
    bad = np.flatnonzero(_duplicate_rows(m))
    for _ in range(_MAX_REDRAWS):
        if bad.size == 0:
            return m
        m[bad] = (rng.random((bad.size, k)) * n_vals).astype(np.int64)
        bad = bad[_duplicate_rows(m[bad])]
    raise RuntimeError(
        f"distinct-tuple redraw did not converge in {_MAX_REDRAWS} "
        f"rounds (k={k}, pool={n_vals})")


def sample_members_flat(rng: np.random.Generator, n_groups: int, n: int,
                        n_disks: int) -> np.ndarray:
    """Uniform membership: ``n`` distinct disks per group, flat pool.

    The same distribution the DES's random placement uses.  The
    engine's flat hot path no longer materializes memberships (it samples
    the failed blocks directly; see :func:`sample_group_tallies`);
    this dense sampler remains the distributional *oracle* the
    conformance suite checks that shortcut against.
    """
    if n == 1:
        # int32 ids: disk counts are far below 2^31 and the narrower
        # draw halves the PCG64 output consumed.
        return rng.integers(0, n_disks, size=(n_groups, 1), dtype=np.int32)
    return distinct_uniform(rng, n_groups, n, n_disks).astype(np.int32)


def rack_tables(rack_of_disk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(padded, sizes)``: each rack's disk ids, padded with ``-1``.

    Row ``r`` of ``padded`` lists rack ``r``'s disks in id order and
    ``sizes[r]`` counts them.  A constant of the topology, so a caller
    drawing many memberships builds it once.
    """
    n_racks = int(rack_of_disk.max()) + 1
    sizes = np.bincount(rack_of_disk, minlength=n_racks)
    order = np.argsort(rack_of_disk, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)])
    padded = np.full((n_racks, int(sizes.max())), -1, dtype=np.int64)
    for r in range(n_racks):
        padded[r, :sizes[r]] = order[starts[r]:starts[r + 1]]
    return padded, sizes


def sample_members_capped(rng: np.random.Generator, n_groups: int, n: int,
                          tables: tuple[np.ndarray, np.ndarray],
                          cap: int) -> np.ndarray:
    """Membership under the per-rack placement cap (topology case).

    Racks are expanded into a pool of ``racks * cap`` slots; each group
    takes a uniform ``n``-subset of slots (so no rack is used more than
    ``cap`` times — the constraint holds by construction, never by
    repair), then a uniform disk within each chosen rack, redrawing
    within-group disk collisions.  ``tables`` is :func:`rack_tables` of
    the per-disk rack ids.  ``SystemConfig`` validation guarantees the
    slot pool covers a group and every rack is populated.
    """
    padded, sizes = tables
    n_racks = sizes.size
    keys = rng.random((n_groups, n_racks * cap))
    slots = np.argpartition(keys, n - 1, axis=1)[:, :n]
    racks = slots // cap
    members = padded[racks, rng.integers(0, sizes[racks], dtype=np.int64)]
    bad = np.flatnonzero(_duplicate_rows(members))
    for _ in range(_MAX_REDRAWS):
        if bad.size == 0:
            return members
        r_bad = racks[bad]
        members[bad] = padded[r_bad,
                              rng.integers(0, sizes[r_bad], dtype=np.int64)]
        bad = bad[_duplicate_rows(members[bad])]
    raise RuntimeError(
        f"capped membership redraw did not converge in {_MAX_REDRAWS} "
        f"rounds (n={n}, racks={n_racks}, cap={cap}); a rack is likely "
        f"too small to host its allowed share of a group")


def sample_group_tallies(rng: np.random.Generator, n_groups: int, n: int,
                         n_failed: int, n_disks: int) -> np.ndarray:
    """Sparse flat placement, first draw: the groups per failed-block count.

    Sparse placement draws only the blocks on failed disks, and is
    distributionally identical to drawing all ``n_groups * n`` distinct
    memberships (:func:`sample_members_flat`) and keeping the blocks on
    the ``n_failed`` failed disks:

    * each group's failed-block count is hypergeometric
      (:func:`hypergeom_pmf`), independent across groups, and every
      statistic the engine reports is invariant under permuting group
      ids — so one ``multinomial(n_groups, pmf)`` draw of the per-count
      group *tallies* carries the full information;
    * conditioned on its count ``k``, a group's failed disks are a
      uniform distinct ``k``-tuple of the failed set (exchangeability of
      the uniform distinct-``n`` draw), which :func:`sample_section`
      draws, one count at a time;
    * blocks on *surviving* disks never matter: they cannot open a
      vulnerability window, and a failed disk's rebuild queue is exactly
      its failed blocks.

    Entry ``k`` of the result counts the groups with exactly ``k`` failed
    blocks, ``k = 0..n``.  The sections follow on the same stream in
    ascending ``k`` (the consumption order the golden pins fix).
    """
    pmf = hypergeom_pmf(n, n_failed, n_disks)
    return rng.multinomial(n_groups, pmf / pmf.sum())


def sample_section(rng: np.random.Generator, n_rows: int, k: int,
                   n_failed: int,
                   out: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> np.ndarray:
    """Sparse flat placement, per count: the failed disks of ``n_rows``
    groups that hold exactly ``k`` failed blocks each.

    Returns a ``(n_rows, k)`` matrix of distinct indices into the
    caller's failed-id array (:func:`distinct_uniform`, which writes into
    ``out`` when given).  A one-block section (``k == 1``) is never
    redrawn, so it consumes exactly ``n_rows`` 64-bit words: a caller
    that needs only its size may ``rng.bit_generator.advance(n_rows)``
    instead and leave the stream where the draw would have.  Larger
    sections redraw colliding rows, so what they consume depends on the
    values drawn.
    """
    if n_rows == 0:
        return np.empty((0, k), dtype=np.int64)
    return distinct_uniform(rng, n_rows, k, n_failed, out)


class BulkLifetime:
    """One system lifetime under the bulk window-overlap model."""

    def __init__(self, config: SystemConfig, seed: int = 0) -> None:
        reasons = refusals(config)[BULK]
        if reasons:
            raise ValueError("the bulk engine cannot express this config "
                             "(run it on engine='des'): "
                             + "; ".join(reasons))
        # Reject a rate-limited repair lane that cannot keep up with its
        # own failure inflow, as the DES does.
        check_repair_lane(config)
        self.cfg = config
        self.seed = seed
        self.n = config.scheme.n
        self.tol = config.scheme.tolerance
        self.G = config.n_groups
        self.N = config.n_disks
        # Constants of the config, built once for every run.
        self.model = config.vintage.failure_model
        self._rack_tables = None
        if config.max_chunks_per_domain is not None:
            self._rack_tables = rack_tables(Topology(
                config.racks, config.machines_per_rack, self.N).rack_array())
        self._buffers = _work_rows(0)

    # ------------------------------------------------------------------ #
    def _work(self, size: int) -> tuple[np.ndarray, ...]:
        """Length-``size`` views of the work buffers: float64 uniforms
        and windows, float64 gathered values, the one-block section's
        int64 indices and the completion filter's bool mask.

        Every lifetime this instance runs (a pool task's batch) writes its
        one-block draw and the traditional windows of each section into
        the same buffers instead of fresh arrays.  A 2 PB section of
        ~40,000 blocks makes arrays of ~300 KiB; depending on the heap's
        layout, glibc hands such arrays back to the OS when they are
        freed, and a lifetime that allocates them afresh re-faults about
        120 pages.  The four buffers are rows of one allocation (the
        mask uses an eighth of its row).  Four separate buffers were
        re-faulted batch after batch, about 5 faults per lifetime against
        1.5 for one block, which fits glibc raising its dynamic mmap and
        trim thresholds to the size of the freed block (inferred).
        They grow when a section outgrows them, with an eighth of
        headroom so that sections varying by a few percent from lifetime
        to lifetime do not regrow them.  They belong to the instance, not
        the module, because a batch may run on a worker thread.
        """
        if size > self._buffers[0].size:
            self._buffers = _work_rows(size + size // 8)
        return tuple(b[:size] for b in self._buffers)

    def _failed_block_sections(self, rng: np.random.Generator,
                               failed_ids: np.ndarray, skip_single: bool
                               ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """Per-count tallies and sections of failed blocks.

        Returns ``(tallies, sections)``.  ``tallies[k - 1]`` groups hold
        exactly ``k`` failed blocks, and ``sections[k - 1]`` is their
        ``(K_k, k)`` matrix of the positions in ``failed_ids`` of the
        disks those blocks sit on.  Flat placement samples the sections
        sparsely; with ``skip_single`` it does not draw the one-block
        section, advances the stream past it instead and leaves ``None``
        in its place.  The rack-capped topology case (where the cap skews
        the count law) draws the dense membership and regroups its failed
        blocks into the same shape, whatever ``skip_single`` says.
        """
        if self._rack_tables is None:
            tallies = sample_group_tallies(rng, self.G, self.n,
                                           failed_ids.size, self.N)[1:]
            sections: list[np.ndarray | None] = []
            for k, rows in enumerate(tallies.tolist(), start=1):
                if k == 1 and skip_single:
                    rng.bit_generator.advance(rows)
                    sections.append(None)
                else:
                    # The one-block section is drawn into the work
                    # buffers; the loop over sections leaves the int64
                    # one alone.
                    out = None
                    if k == 1:
                        uniforms, _, ids, _ = self._work(rows)
                        out = uniforms, ids
                    sections.append(sample_section(rng, rows, k,
                                                   failed_ids.size, out))
            return tallies, sections
        members = sample_members_capped(rng, self.G, self.n,
                                        self._rack_tables,
                                        self.cfg.max_chunks_per_domain)
        index_of = np.full(self.N, -1, dtype=np.int64)
        index_of[failed_ids] = np.arange(failed_ids.size)
        failed_members = index_of[members]
        hit = failed_members >= 0
        fcount = hit.sum(axis=1)
        sections = []
        for k in range(1, self.n + 1):
            rows_k = np.flatnonzero(fcount == k)
            # Row-major boolean pick: each selected row contributes
            # exactly k entries, in slot order.
            sections.append(failed_members[rows_k][hit[rows_k]]
                            .reshape(rows_k.size, k))
        return np.array([m.shape[0] for m in sections]), sections

    def _traditional_windows(self, rng: np.random.Generator,
                             queue_len: np.ndarray, out: np.ndarray
                             ) -> np.ndarray:
        """Windows of vulnerability for *failed* blocks, traditional (s).

        Traditional recovery queues all of a dead disk's blocks serially
        on its dedicated spare: the block in queue position ``pos``
        (1-based, uniform over the dead disk's ``queue_len`` hosted
        blocks) completes ``pos`` block-times after detection — exactly
        the DES's serial ``free_at`` schedule.  Positions are
        drawn only for blocks that actually failed, in section order;
        ``pos ~ Uniform{1..k}`` via ``floor(u * k) + 1``, which is
        exactly uniform for the tiny per-disk block counts and ~5x
        faster than a bounded ``integers`` draw with an array ``high``.
        The uniforms are drawn into ``out``, a work buffer of
        ``queue_len``'s length (the same stream words as a fresh array),
        and the arithmetic runs in place there; ``out`` is returned.
        (FARM rebuilds in parallel, so its window is the constant
        ``detection_latency + rebuild_seconds_per_block`` and never
        reaches this method — or the ``bulk-windows`` stream.)
        """
        cfg = self.cfg
        window = rng.random(out=out)
        window *= queue_len
        np.floor(window, out=window)
        window += 1.0
        window *= cfg.rebuild_seconds_per_block
        window += cfg.detection_latency
        return window

    def _lossy_section(self, fail_k: np.ndarray, repair_k: np.ndarray
                       ) -> tuple[int, float, int, np.ndarray | None]:
        """Outcome of the groups holding more than ``tolerance`` failed
        blocks, one ``(K_k, k)`` section.

        Returns ``(lost, first_loss, started, completed)``: the groups
        lost, the earliest loss instant, the rebuilds started and the
        mask of completed rebuilds, or ``None`` when every block
        completes one.  Groups holding exactly ``tolerance + 1`` failed
        blocks are resolved in closed form (:func:`all_open_loss_times`),
        larger ones by :func:`group_loss_times`.  A rebuild starts at the
        *detect* event (failure + detection latency) only if the group is
        not lost by then — the loss-triggering block never starts one —
        and completes unless cancelled by a later loss or censored by the
        horizon, as in the DES.  A window is at least the detection
        latency, so a group that is not lost and whose repairs all end
        in-horizon starts and completes every rebuild: only the
        exception rows, groups lost or holding a repair past the
        horizon, get per-block masks.
        """
        cfg = self.cfg
        duration = cfg.duration
        if fail_k.shape[1] == self.tol + 1:
            lost_k, when_k = all_open_loss_times(fail_k, repair_k)
        else:
            lost_k, when_k = group_loss_times(fail_k, repair_k, self.tol)
        # A row-wise `any` over the short trailing axis costs more than
        # the rest of the section, and most sections end in-horizon:
        # test the whole section first.
        exception = lost_k
        if repair_k.max() > duration:
            exception = lost_k | (repair_k > duration).any(axis=1)
        rows = np.flatnonzero(exception)
        if rows.size == 0:
            return 0, np.inf, fail_k.size, None
        # `when_k` is inf on the rows that are not lost.
        loss_of = when_k[rows, None]
        fail_x, repair_x = fail_k[rows], repair_k[rows]
        detect_x = fail_x + cfg.detection_latency
        started_x = (detect_x <= duration) & (detect_x < loss_of)
        completed_k = np.ones(fail_k.shape, dtype=bool)
        completed_k[rows] = (started_x & (repair_x < loss_of)
                             & (repair_x <= duration))
        return (int(np.count_nonzero(lost_k[rows])), float(loss_of.min()),
                fail_k.size - fail_x.size + int(np.count_nonzero(started_x)),
                completed_k)

    # ------------------------------------------------------------------ #
    def run(self, seed: int | None = None) -> RecoveryStats:
        """Execute the lifetime; returns DES-shaped statistics.

        The hot path is *sparse* and mostly per failed *disk*: the age
        draw inverts the hazard only for disks that may fail in-horizon,
        and only the blocks on failed disks (a few percent of ``G * n``)
        are ever materialized, already grouped into dense per-count
        sections.  Groups holding at most ``tolerance`` failed blocks can
        never be lost, so their rebuilds are counted from per-disk masks,
        or from the group tallies alone when every failed disk of a FARM
        lifetime finishes its rebuilds in-horizon.  The loss predicate
        (:meth:`_lossy_section`) runs pad-free on exactly the groups that
        hold more: in closed form at ``tolerance + 1`` failed blocks, as
        a quadratic overlap count above, with per-block masks only on
        its exception rows.  No G- or N·n-length array is ever built.

        ``seed`` overrides the instance seed, so one validated instance
        can serve a whole batch of runs.
        """
        cfg = self.cfg
        duration = cfg.duration
        latency = cfg.detection_latency
        rebuild = cfg.rebuild_seconds_per_block
        streams = RandomStreams(self.seed if seed is None else seed)

        failed_ids, fail_at = self.model.sample_failed_within(
            streams.bulk("failures"), self.N, duration)
        n_failed = failed_ids.size
        stats = RecoveryStats()
        stats.disk_failures = n_failed
        if n_failed == 0:
            return stats

        # Whether each failed disk's rebuilds start in-horizon.  FARM
        # rebuilds a dead disk's blocks in parallel across the fleet:
        # every window is the same constant (and the `bulk-windows`
        # stream is never consumed).  When every failed disk also
        # completes them in-horizon (most FARM lifetimes), each block in
        # a group that can never be lost starts and completes one
        # rebuild, whichever disk it sat on: those groups count by their
        # tallies, and the one-block section need not be drawn.
        started = fail_at + latency <= duration
        tallied = False
        if cfg.use_farm:
            window = latency + rebuild
            done = started & (fail_at + window <= duration)
            tallied = bool(done.all())
        tallies, sections = self._failed_block_sections(
            streams.bulk("placement"), failed_ids,
            skip_single=tallied and self.tol >= 1)
        if not tallies.any():
            return stats

        if tallied:
            n_started = n_safe = int(tallies[:self.tol]
                                     @ np.arange(1, self.tol + 1))
        else:
            # Per failed disk: its blocks in each section, and in the
            # groups that can never be lost.
            per_section = [np.bincount(m.ravel(), minlength=n_failed)
                           for m in sections]
            safe_blocks = sum(per_section[:self.tol],
                              np.zeros(n_failed, dtype=np.intp))
            n_started = int(safe_blocks[started].sum())
        n_lost = 0
        first_loss = np.inf

        if cfg.use_farm:
            n_completed = (n_safe if tallied
                           else int(safe_blocks[done].sum()))
            for m in sections[self.tol:]:
                if m.size:
                    fail_k = fail_at[m]
                    lost, first, n_st, completed_k = self._lossy_section(
                        fail_k, fail_k + window)
                    n_lost += lost
                    first_loss = min(first_loss, first)
                    n_started += n_st
                    n_completed += (m.size if completed_k is None
                                    else int(np.count_nonzero(completed_k)))
            window_total = window * n_completed
            window_max = window if n_completed else 0.0
        else:
            # A failed disk's rebuild queue is its hosted blocks — all
            # of which failed with it, so the per-section counts give the
            # queue length exactly.  The windows are drawn section by
            # section, in order: the same stream words as one flat draw.
            queue = sum(per_section, np.zeros(n_failed))
            rng = streams.bulk("windows")
            # A queue's tail finishes last, so a disk whose tail finishes
            # in-horizon completes every rebuild.  When that holds for
            # every disk with blocks in safe groups (most lifetimes), no
            # safe window needs its own completion test.  (A window is
            # at least the detection latency, so a rebuild that completes
            # in-horizon also started in-horizon.)
            whole = started & (fail_at + (latency + queue * rebuild)
                               <= duration)
            check_safe = bool(safe_blocks[~whole].any())
            n_completed = 0
            window_total = 0.0
            window_max = 0.0
            for k, m in enumerate(sections, start=1):
                if m.size == 0:
                    continue
                # The gathers and windows go to the work buffers; the
                # block indices are in range, so `take` need not check.
                blocks = m.ravel()
                win, gathered, _, keep = self._work(blocks.size)
                np.take(queue, blocks, out=gathered, mode="clip")
                self._traditional_windows(rng, gathered, out=win)
                if k <= self.tol:
                    if check_safe:
                        np.take(fail_at, blocks, out=gathered, mode="clip")
                        gathered += win
                        np.less_equal(gathered, duration, out=keep)
                        win = win[keep]
                else:
                    fail_k = fail_at[m]
                    win_k = win.reshape(m.shape)
                    lost, first, n_st, completed_k = self._lossy_section(
                        fail_k, fail_k + win_k)
                    n_lost += lost
                    first_loss = min(first_loss, first)
                    n_started += n_st
                    if completed_k is not None:
                        win = win_k[completed_k]
                # Completed windows are summed per block, section by
                # section, so `window_total` keeps its bits.
                n_completed += win.size
                if win.size:
                    window_total += float(win.sum())
                    window_max = max(window_max, float(win.max()))

        stats.rebuilds_started = n_started
        stats.rebuilds_completed = n_completed
        stats.window_total = window_total
        stats.window_max = window_max
        stats.groups_lost = n_lost
        stats.bytes_lost = n_lost * cfg.group_user_bytes
        if n_lost:
            stats.first_loss_time = first_loss
        return stats


def _work_rows(capacity: int) -> tuple[np.ndarray, ...]:
    """The work buffers of :meth:`BulkLifetime._work`, ``capacity``
    elements each, as rows of one allocation."""
    rows = np.empty((4, capacity))
    return (rows[0], rows[1], rows[2].view(np.int64),
            rows[3].view(np.bool_)[:capacity])


def run_bulk_batch(config: SystemConfig,
                   seeds: list[int]) -> list[RecoveryStats]:
    """A batch of independent bulk lifetimes, one per seed, in order.

    One validated :class:`BulkLifetime` serves the whole batch — the
    per-run state is entirely inside :meth:`BulkLifetime.run` (the work
    buffers the runs share carry nothing from one run to the next), so
    this is identical to constructing a fresh instance per seed, minus
    the repeated validation and allocation.
    """
    lifetime = BulkLifetime(config)
    return [lifetime.run(seed=s) for s in seeds]
