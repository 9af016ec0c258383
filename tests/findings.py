"""The paper's findings, one check per experiment.

Each ``check_*`` holds the assertions one experiment's tables must
satisfy.  Scale-free assertions always apply; :func:`strict` ones need
at least 20 runs per point (smoke scale's 4 runs only exercise the
machinery), and :func:`paper_scale` ones need ``scale=paper``, the only
geometry that resolves the rarest losses.  ``tests/test_experiments.py``
applies every check at smoke scale (at ``REPRO_SCALE`` when set); the
slow ``tests/test_tracked_tables.py`` applies them to the tracked tables
it reruns.
"""

import re

import pytest

from repro.experiments.figure4 import collapse_by_ratio
from repro.units import GB, MB, MINUTE

#: Table names -> the check over those tables, registered by @checks.
CHECKS = {}


def checks(*tables):
    """Register a check over the named tables (``result.experiment``)."""
    def register(fn):
        CHECKS[tables] = fn
        return fn
    return register


def check(results) -> set[str]:
    """Apply every check whose tables are all in ``results``.

    ``results`` is what one ``python -m repro run NAME`` renders; the
    return value is the set of table names some check covered.
    """
    tables = {r.experiment: r for r in results}
    covered = set()
    for names, fn in CHECKS.items():
        if set(names) <= tables.keys():
            fn(*(tables[name] for name in names))
            covered.update(names)
    return covered


def strict(result) -> bool:
    """Enough Monte-Carlo runs for stochastic shape assertions."""
    return result.scale.n_runs >= 20


def paper_scale(result) -> bool:
    """The paper's full geometry, where rare-event assertions have power."""
    return result.scale.name == "paper"


def by(result, **filters):
    """Rows of an ExperimentResult matching all the given column values."""
    return [r for r in result.rows
            if all(r.get(k) == v for k, v in filters.items())]


def total(rows, column):
    return sum(r[column] for r in rows)


# --------------------------------------------------------------------- #
# The paper's tables and figures
# --------------------------------------------------------------------- #
@checks("table1")
def check_table1(result):
    """Simulated drives fail at the specified rate in every age period."""
    for row in result.rows[:-1]:
        assert row["rel_err_pct"] < 6.0, row
    cumulative = result.rows[-1]["empirical_pct"]
    assert 9.0 < cumulative < 13.0          # the paper's ~10% in six years


@checks("figure3a", "figure3b")
def check_figure3(panel_a, panel_b):
    """FARM loses far less data than traditional recovery; group size
    matters only without it."""
    farm = {r["scheme"]: r for r in by(panel_a, farm="FARM")}
    trad = {r["scheme"]: r for r in by(panel_a, farm="w/o")}

    # FARM always increases reliability (>= allows 0-0 ties per scheme).
    for scheme in farm:
        assert farm[scheme]["groups_lost"] <= trad[scheme]["groups_lost"], \
            scheme

    if strict(panel_a):
        # The headline contrast, aggregated over the single-fault-tolerant
        # schemes for statistical power at reduced scale: the traditional
        # baseline loses strictly more than FARM.
        single_fault = ("1/2", "2/3", "4/5")
        trad_losses = sum(trad[s]["groups_lost"] for s in single_fault)
        farm_losses = sum(farm[s]["groups_lost"] for s in single_fault)
        assert trad_losses > farm_losses

        # RAID-5-like parity w/o FARM "fails to provide sufficient
        # reliability": the worst bar belongs to it.
        worst = max(panel_a.rows, key=lambda r: r["p_loss_pct"])
        assert worst["farm"] == "w/o" and worst["scheme"] in ("2/3", "4/5")

    if paper_scale(panel_a):
        # Per-scheme mirror contrast (the paper's 6-25% vs 1-3%): only the
        # full 2 PB / 100-run geometry resolves these rare events.
        assert trad["1/2"]["groups_lost"] > farm["1/2"]["groups_lost"]
        assert trad["1/2"]["p_loss_pct"] > 0

    # Double-fault-tolerant schemes with FARM: essentially immune.
    for scheme in ("1/3", "4/6", "8/10"):
        assert farm[scheme]["groups_lost"] == 0, scheme

    # Panel (b): FARM still no worse at 50 GB groups.
    farm_b = by(panel_b, farm="FARM", scheme="1/2")[0]
    trad_b = by(panel_b, farm="w/o", scheme="1/2")[0]
    assert farm_b["groups_lost"] <= trad_b["groups_lost"]

    # Group-size effect: smaller groups hurt the baseline (a >= b;
    # aggregated over the single-fault schemes for power), while FARM
    # stays low in both panels.
    if strict(panel_a):
        single_fault = ("1/2", "2/3", "4/5")
        trad_b_all = {r["scheme"]: r for r in by(panel_b, farm="w/o")}
        a_losses = sum(trad[s]["groups_lost"] for s in single_fault)
        b_losses = sum(trad_b_all[s]["groups_lost"] for s in single_fault)
        assert a_losses >= b_losses
    assert farm["1/2"]["p_loss_pct"] < 25.0
    assert farm_b["p_loss_pct"] < 25.0


@checks("figure4")
def check_figure4(result):
    """Small groups are the latency-sensitive ones (a); the latency to
    recovery-time ratio determines P(loss) (b)."""
    # The mechanism, exactly: window = detection latency + one block
    # rebuild at 16 MB/s.  This is what makes small groups sensitive: for
    # 1 GB groups a 10-minute latency is ~90% of the window (paper §3.3).
    for row in result.rows:
        if row["mean_window_s"] == 0:       # no rebuilds in any run
            continue
        expected = row["latency_min"] * MINUTE + \
            row["group_gb"] * GB / (16 * MB)
        assert row["mean_window_s"] == pytest.approx(expected, rel=0.05), row

    # Ratio bookkeeping for panel (b), exact.
    for row in result.rows:
        expected = (row["latency_min"] * 60.0) / (
            row["group_gb"] * 1e9 / 16e6)
        assert abs(row["latency_over_rebuild"] - expected) < 1e-9
    collapsed = collapse_by_ratio(result)
    assert [r["ratio"] for r in collapsed] == sorted(
        r["ratio"] for r in collapsed)

    # Loss-probability shapes: only the paper-scale run resolves these
    # rare events (FARM losses are ~1% per lifetime).
    if paper_scale(result):
        small_hi = by(result, group_gb=1.0, latency_min=10.0)[0]
        big_hi = by(result, group_gb=50.0, latency_min=10.0)[0]
        assert small_hi["p_loss_pct"] >= big_hi["p_loss_pct"]
        assert small_hi["p_loss_pct"] > 0
        curve = [r["p_loss_pct"] for r in by(result, group_gb=1.0)]
        assert curve[-1] >= curve[0]


def _window(result, mode, gb, bw):
    return by(result, mode=mode, group_gb=gb, bw_mbps=bw)[0]["mean_window_s"]


@checks("figure5")
def check_figure5(result):
    """More recovery bandwidth mostly helps the traditional scheme."""
    # Mechanism (deterministic): the traditional window scales inversely
    # with recovery bandwidth -- 8 MB/s windows are ~5x the 40 MB/s ones...
    w_trad_slow = _window(result, "w/o", 10.0, 8.0)
    w_trad_fast = _window(result, "w/o", 10.0, 40.0)
    assert w_trad_slow / w_trad_fast == pytest.approx(5.0, rel=0.15)

    # ... while FARM windows stay minutes-scale at every bandwidth: the
    # whole sweep moves them by less than the baseline's single 8->16 step.
    w_farm_slow = _window(result, "FARM", 10.0, 8.0)
    w_farm_fast = _window(result, "FARM", 10.0, 40.0)
    assert w_farm_slow < w_trad_slow / 5
    assert (w_farm_slow - w_farm_fast) < (w_trad_slow - w_trad_fast) / 5

    # Loss statistics: baseline improves with bandwidth; FARM stays at or
    # below the baseline's worst point everywhere.
    slow_p = total(by(result, mode="w/o", bw_mbps=8.0), "p_loss_pct")
    fast_p = total(by(result, mode="w/o", bw_mbps=40.0), "p_loss_pct")
    if strict(result):
        assert slow_p >= fast_p
    if paper_scale(result):
        assert slow_p > fast_p

    farm_worst = max(r["p_loss_pct"] for r in by(result, mode="FARM"))
    assert farm_worst <= slow_p or farm_worst == 0

    # And FARM never loses more than the baseline at any bandwidth point.
    for bw in (8.0, 16.0, 24.0, 32.0, 40.0):
        farm_p = total(by(result, mode="FARM", bw_mbps=bw), "p_loss_pct")
        trad_p = total(by(result, mode="w/o", bw_mbps=bw), "p_loss_pct")
        assert farm_p <= trad_p + 100.0 / result.scale.n_runs, bw


@checks("table3")
def check_table3(result):
    """Utilization grows as survivors absorb failed disks' data; smaller
    groups balance better (Table 3 / Figure 6)."""
    initial = {r["group_gb"]: r for r in result.rows
               if r["when"] == "initial"}
    final = {r["group_gb"]: r for r in result.rows
             if r["when"] == "after 6y"}

    for gb, row in initial.items():
        # 40% of 1 TB, for every group size
        assert row["mean_gb"] == pytest.approx(400.0, rel=0.05), gb

    for gb in initial:
        # survivors absorb the redistributed data
        assert final[gb]["mean_gb"] > initial[gb]["mean_gb"], gb
        # drives failed during the six years (Figure 6's zero-load disk)
        assert final[gb]["failed_disks"] > 0, gb
        # recovery adds imbalance on top of placement noise
        assert final[gb]["std_gb"] >= initial[gb]["std_gb"] * 0.8, gb

    # smaller groups balance better (paper: "smaller-sized redundancy
    # groups result in a lower standard deviation")
    sizes = sorted(initial)
    for small, large in zip(sizes, sizes[1:]):
        assert initial[small]["std_gb"] < initial[large]["std_gb"]
        assert final[small]["std_gb"] < final[large]["std_gb"]


@checks("figure7")
def check_figure7(result):
    """Batch replacement shows no cohort effect at ~10% lifetime
    failures."""
    rows = {r["threshold_pct"]: r for r in result.rows}
    assert set(rows) == {2.0, 4.0, 6.0, 8.0}

    # replacement frequency decreases with the threshold
    assert rows[2.0]["batches_mean"] >= rows[8.0]["batches_mean"]
    # ~12% of drives fail in six years, so a 2% threshold triggers
    # multiple batches and an 8% threshold at least roughly one
    assert rows[2.0]["batches_mean"] >= 3.0
    assert 0.5 <= rows[8.0]["batches_mean"] <= 2.0

    # migration volume scales with batch count
    assert rows[2.0]["migrated_mean"] > 0

    # the cohort effect is not visible: no threshold's P(loss) is an
    # outlier (all pairwise CIs overlap in the paper; we assert the spread
    # stays within the Monte-Carlo noise band)
    probs = [r["p_loss_pct"] for r in result.rows]
    assert max(probs) - min(probs) <= 100.0 / result.scale.n_runs * 5


@checks("figure8a")
def check_figure8a(result):
    """P(loss) grows with capacity; RAID-5-like parity is the least
    reliable family even with FARM."""
    mirror = by(result, scheme="1/2")
    caps = [r["capacity_pb"] for r in mirror]
    probs = [r["p_loss_pct"] for r in mirror]

    # growth with capacity (monotone across the endpoints)
    assert probs[-1] >= probs[0]
    assert probs[-1] <= 100.0

    # RAID-5 with FARM worse than mirroring with FARM at the top of the
    # sweep ("RAID 5-like parity cannot provide enough reliability even
    # with FARM")
    raid_top = by(result, scheme="4/5", capacity_pb=caps[-1])[0]
    mirror_top = by(result, scheme="1/2", capacity_pb=caps[-1])[0]
    assert raid_top["p_loss_pct"] >= mirror_top["p_loss_pct"]

    # double-fault-tolerant schemes near zero everywhere
    for scheme in ("1/3", "4/6"):
        assert total(by(result, scheme=scheme), "p_loss_pct") == 0.0


@checks("figure8b")
def check_figure8b(result):
    """Doubled drive failure rates."""
    caps = sorted({r["capacity_pb"] for r in result.rows})
    raid_top = by(result, scheme="4/5", capacity_pb=caps[-1])[0]
    if strict(result):
        assert raid_top["p_loss_pct"] > 0
    # and still grows with capacity
    raid = by(result, scheme="4/5")
    assert raid[-1]["p_loss_pct"] >= raid[0]["p_loss_pct"]


@checks("redirection")
def check_redirection(result):
    """§2.3: recovery redirection is rare (< 8% of systems at worst)."""
    for row in result.rows:
        # generous ceiling: paper says < 8% at worst; allow Monte-Carlo
        # noise at small run counts
        assert row["systems_with_redirection_pct"] <= 25.0, row
    worst = max(r["systems_with_redirection_pct"] for r in result.rows)
    assert worst <= 25.0


# --------------------------------------------------------------------- #
# Analytic tables (extensions beyond the paper's figures)
# --------------------------------------------------------------------- #
@checks("mttdl")
def check_mttdl(result):
    """The Markov-chain MTTDL table agrees with the window model."""
    rows = {(r["scheme"], r["mode"]): r for r in result.rows}

    # FARM multiplies the mirrored-pair MTTDL by ~ the window ratio (the
    # chain is linear in the repair rate for single-fault tolerance).
    farm = rows[("1/2", "FARM")]
    trad = rows[("1/2", "w/o")]
    window_ratio = trad["window_s"] / farm["window_s"]
    mttdl_ratio = farm["system_mttdl_yr"] / trad["system_mttdl_yr"]
    assert mttdl_ratio == pytest.approx(window_ratio, rel=0.15)

    # each extra tolerated fault buys ~ mu/lambda ~ 10^5..10^6
    assert rows[("1/3", "FARM")]["system_mttdl_yr"] > \
        1e4 * rows[("1/2", "FARM")]["system_mttdl_yr"]

    # six-year loss from the chain matches the window model's regime:
    # mirroring + FARM ~ 1-3%, traditional ~ 25-35% (the paper's bars)
    assert 1.0 < farm["p_loss_6yr_pct"] < 4.0
    assert 20.0 < trad["p_loss_6yr_pct"] < 40.0

    # RAID-5-like parity is the worst family in both modes
    worst = max(result.rows, key=lambda r: r["p_loss_6yr_pct"])
    assert worst["scheme"] in ("4/5", "2/3") and worst["mode"] == "w/o"

    # every FARM row beats its traditional counterpart
    for scheme in ("1/2", "1/3", "2/3", "4/5", "4/6", "8/10"):
        assert rows[(scheme, "FARM")]["system_mttdl_yr"] > \
            rows[(scheme, "w/o")]["system_mttdl_yr"], scheme


@checks("perf-degraded")
def check_perf_degraded(result):
    """§1-2: declustering keeps survivor load during recovery flat."""
    for scheme in ("1/2", "2/3", "4/5", "4/6", "8/10"):
        dedicated = by(result, scheme=scheme, layout="dedicated-array")[0]
        declustered = by(result, scheme=scheme, layout="declustered")[0]
        # the classical ~2x for single-copy layouts, plus rebuild tax
        assert dedicated["total_load_factor"] >= 1.5, scheme
        # declustering dilutes to O(n/N)
        assert declustered["total_load_factor"] < 1.05, scheme
        assert declustered["total_load_factor"] < \
            dedicated["total_load_factor"], scheme


# --------------------------------------------------------------------- #
# Ablations of the design choices DESIGN.md calls out
# --------------------------------------------------------------------- #
@checks("ablation-placement")
def check_ablation_placement(result):
    """RUSH and random placement give the same reliability."""
    rows = {r["placement"]: r for r in result.rows}

    # Wilson CIs overlap: same reliability from both placements.
    def interval(row):
        lo, hi = re.search(r"\[([\d.]+),([\d.]+)\]", row["ci95"]).groups()
        return float(lo), float(hi)
    lo_a, hi_a = interval(rows["random"])
    lo_b, hi_b = interval(rows["rush"])
    assert lo_a <= hi_b and lo_b <= hi_a


@checks("ablation-policy")
def check_ablation_policy(result):
    """Dropping target-selection constraints on a dense system."""
    rows = {r["policy"]: r for r in result.rows}
    # full policy never co-locates buddies; the ablated one may
    assert rows["full"]["buddy_violations"] == 0
    assert rows["no-buddy-check"]["buddy_violations"] >= \
        rows["full"]["buddy_violations"]
    # recovery still completes under every variant
    for row in result.rows:
        assert row["rebuilds"] > 0


@checks("ablation-workload")
def check_ablation_workload(result):
    """Diurnal user load throttling recovery bandwidth (§2.4)."""
    rows = {r["peak_load"]: r for r in result.rows}
    # heavier user load can only hurt (>= with Monte-Carlo slack)
    assert rows[0.8]["p_loss_pct"] >= rows[0.0]["p_loss_pct"] - 5.0


@checks("ablation-mixed-scheme")
def check_ablation_mixed_scheme(result):
    """Mixed mirrored-parity groups (§2.2)."""
    rows = {r["scheme"]: r for r in result.rows}
    mixed = rows["mirrored-raid5(4+1)x2"]
    # exact pattern analysis: tolerance 3, all 3-failure patterns survive,
    # most 4-failure patterns too (only paired positions are fatal)
    assert mixed["tolerance"] == 3
    assert mixed["survive_3of_pct"] == 100.0
    assert 50.0 < mixed["survive_4of_pct"] < 100.0
    # plain mirroring: tolerance 1, no 3-failure pattern survivable
    assert rows["1/2"]["survive_3of_pct"] == 0.0
    # and the scheme runs end to end
    assert mixed["rebuilds"] > 0


@checks("ablation-bathtub")
def check_ablation_bathtub(result):
    """The paper's critique of flat failure-rate studies."""
    rows = {r["hazard"]: r for r in result.rows}
    # equal cumulative failures by construction; both must see loss at
    # this (traditional-recovery) operating point so the comparison is
    # informative
    if strict(result):
        assert rows["bathtub"]["p_loss_pct"] > 0
        assert rows["flat"]["p_loss_pct"] > 0
