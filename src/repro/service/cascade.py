"""Layered estimator cascade: cheapest valid answer first.

Tier order; the envelope table (:mod:`repro.reliability.envelope`)
gates the markov, analytic and bulk tiers in one pass:

1. ``markov`` — exact CTMC closed form: one constant hazard rate, FARM
   recovery, flat topology.  Degenerate interval — the chain *is* the
   model's truth.
2. ``analytic`` — first-order window model; the interval is the
   model's own truncation bound (relative O(hW)), not sampling noise.
3. ``surrogate`` — multilinear interpolation over precomputed grids
   (:class:`repro.service.surrogate.GridStore`), refusing extrapolation.
4. ``live-bulk`` / ``live-des`` — Monte-Carlo on the persistent pool;
   the vectorized bulk engine where the table admits it, the DES engine
   otherwise.  Evidence accumulates in the
   content-addressed cache across background refinement rounds, each
   round seeded from ``(digest, round)`` so counts never double-count
   and a restarted server reproduces the same trajectory.

Before any tier runs, the Luby-style feasibility rail refuses configs
whose steady-state repair demand exceeds the recovery bandwidth —
every estimator downstream would just measure the queue diverging.
The rail, the envelope and the closed forms all read the failure
model's memoized H(duration)
(:meth:`~repro.disks.failure.BathtubFailureModel.cumulative_hazard_at`),
so a request evaluates the hazard at most once, and not at all when
its rate schedule was parsed before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..availability.luby import (InfeasibleConfig, check_feasible,
                                 repair_utilization)
from ..config import SystemConfig, config_digest
from ..reliability import analytic, markov
from ..reliability.envelope import ANALYTIC, BULK, MARKOV, refusals
from ..reliability.montecarlo import estimate_p_loss_async
from ..reliability.runner import SweepRunner
from ..reliability.stats import Proportion
from ..sim.rng import stable_hash64
from .cache import CacheEntry, ForecastCache
from .surrogate import GridStore, SurrogateGrid

#: Tier names, cheap to expensive (response ``tier`` field values).
TIER_MARKOV = "markov"
TIER_ANALYTIC = "analytic"
TIER_SURROGATE = "surrogate"
TIER_LIVE_BULK = "live-bulk"
TIER_LIVE_DES = "live-des"

#: Lifetimes per live round — the first answer's budget, and each
#: background refinement round's increment.
DEFAULT_LIVE_RUNS = 64

#: Refinement stops once an entry's 95% CI is narrower than this.
DEFAULT_TARGET_CI_WIDTH = 0.05

#: Hard ceiling on accumulated live trials per digest, so one
#: pathological query cannot monopolize the refinement queue forever.
MAX_LIVE_TRIALS = 100_000

@dataclass(frozen=True)
class Forecast:
    """One cascade answer with its provenance."""

    digest: str
    p_loss: Proportion
    mttdl_s: float | None
    tier: str
    #: human-readable provenance: which predicate admitted the tier, or
    #: which grid / how many live rounds produced the number.
    detail: str
    #: True when background refinement will keep tightening this CI.
    refining: bool = False


def _mttdl_from_p(p: float, duration_s: float) -> float | None:
    """MTTDL implied by P(loss over duration) under Poisson arrivals."""
    if p <= 0.0:
        return None
    if p >= 1.0:
        return 0.0
    return -duration_s / math.log(1.0 - p)


class ForecastCascade:
    """Routes one config to the cheapest valid estimator tier."""

    def __init__(self, cache: ForecastCache | None = None,
                 grids: GridStore | None = None,
                 runner: SweepRunner | None = None,
                 live_runs: int = DEFAULT_LIVE_RUNS,
                 target_ci_width: float = DEFAULT_TARGET_CI_WIDTH) -> None:
        if live_runs < 1:
            raise ValueError("live_runs must be >= 1")
        if not 0.0 < target_ci_width < 1.0:
            raise ValueError("target_ci_width must be in (0, 1)")
        # ``is None``, not ``or``: an empty cache or grid store is falsy.
        self.cache = ForecastCache() if cache is None else cache
        self.grids = GridStore() if grids is None else grids
        self.runner = runner or SweepRunner()
        self.live_runs = live_runs
        self.target_ci_width = target_ci_width
        #: configs behind cached digests, so refinement can re-run them.
        self._configs: dict[str, SystemConfig] = {}

    # ------------------------------------------------------------------ #
    def classify(self, cfg: SystemConfig) -> tuple[str, str]:
        """(tier, detail) the cascade would answer this config from."""
        return self._route(cfg)[:2]

    def _route(self, cfg: SystemConfig
               ) -> tuple[str, str, SurrogateGrid | None]:
        """:meth:`classify` plus the covering grid (surrogate tier)."""
        refused = refusals(cfg)
        if not refused[MARKOV]:
            return TIER_MARKOV, "exact CTMC closed form (constant rates)", None
        if not refused[ANALYTIC]:
            return (TIER_ANALYTIC, "first-order window model (in envelope)",
                    None)
        grid = self.grids.lookup(cfg)
        if grid is not None:
            return TIER_SURROGATE, f"multilinear over grid {grid.name!r}", grid
        if not refused[BULK]:
            return TIER_LIVE_BULK, "vectorized bulk Monte-Carlo", None
        return TIER_LIVE_DES, ("discrete-event Monte-Carlo (bulk refused: "
                               + "; ".join(refused[BULK]) + ")"), None

    async def forecast(self, cfg: SystemConfig,
                       confidence: float = 0.95) -> Forecast:
        """Answer one query; live-tier misses run one round of MC."""
        check_feasible(cfg)
        digest = config_digest(cfg)
        tier, detail, grid = self._route(cfg)
        if tier == TIER_MARKOV:
            p = markov.p_loss_config(cfg)
            return Forecast(
                digest=digest, tier=tier, detail=detail,
                p_loss=Proportion(successes=0, trials=0, estimate=p,
                                  lo=p, hi=p, confidence=confidence),
                mttdl_s=markov.mttdl_config(cfg))
        if tier == TIER_ANALYTIC:
            model = analytic.p_loss_window_model(cfg)
            p, rel = model.p_loss, model.hazard_window
            return Forecast(
                digest=digest, tier=tier,
                detail=f"{detail}; truncation bound +/-{rel:.2g} rel",
                p_loss=Proportion(successes=0, trials=0, estimate=p,
                                  lo=max(0.0, p * (1.0 - rel)),
                                  hi=min(1.0, p * (1.0 + rel)),
                                  confidence=confidence),
                mttdl_s=model.mttdl)
        if grid is not None:
            prop = grid.proportion(cfg, confidence)
            return Forecast(
                digest=digest, tier=tier,
                detail=f"{detail} ({grid.n_runs} runs/point)",
                p_loss=prop,
                mttdl_s=_mttdl_from_p(prop.estimate, cfg.duration))
        return await self._live(cfg, digest, tier, detail, confidence)

    # ------------------------------------------------------------------ #
    async def _live(self, cfg: SystemConfig, digest: str, tier: str,
                    detail: str, confidence: float) -> Forecast:
        entry = self.cache.get(digest)
        if entry is None:
            entry = await self._run_round(
                cfg, CacheEntry(digest=digest, losses=0, trials=0,
                                rounds=0, engine=tier.split("-", 1)[1]))
        self._configs[digest] = cfg
        return self._from_entry(entry, cfg, detail, confidence)

    def _from_entry(self, entry: CacheEntry, cfg: SystemConfig,
                    detail: str, confidence: float) -> Forecast:
        prop = entry.proportion(confidence)
        return Forecast(
            digest=entry.digest, tier="live-" + entry.engine,
            detail=f"{detail}; {entry.rounds} round(s), "
                   f"{entry.trials} lifetimes",
            p_loss=prop,
            mttdl_s=_mttdl_from_p(prop.estimate, cfg.duration),
            refining=self._needs_refinement(entry))

    async def _run_round(self, cfg: SystemConfig,
                         entry: CacheEntry) -> CacheEntry:
        """Run one live round and fold its counts into the cache.

        Round ``i`` seeds from ``(digest, "service-live", i)``: rounds
        are disjoint deterministic streams, so re-running a round after
        a crash reproduces — not double-counts — its evidence.
        """
        seed = stable_hash64(entry.digest, "service-live",
                             entry.rounds) % (2 ** 62)
        result = await estimate_p_loss_async(
            cfg, n_runs=self.live_runs, base_seed=seed,
            engine=entry.engine, runner=self.runner)
        merged = entry.merged(result.aggregate.losses,
                              result.n_runs - result.runs_failed)
        self.cache.put(merged)
        return merged

    # ------------------------------------------------------------------ #
    def _needs_refinement(self, entry: CacheEntry) -> bool:
        if entry.trials >= MAX_LIVE_TRIALS:
            return False
        return entry.proportion().width > self.target_ci_width

    def refinement_queue(self) -> list[CacheEntry]:
        """Refinable entries, widest interval first.

        Only digests whose config this process has seen are refinable —
        the journal stores evidence, not configs, so entries inherited
        from an earlier server life refine again once re-queried.
        """
        pending = [e for e in self.cache.entries()
                   if e.digest in self._configs
                   and self._needs_refinement(e)]
        pending.sort(key=lambda e: e.proportion().width, reverse=True)
        return pending

    async def refine_once(self) -> CacheEntry | None:
        """Tighten the widest refinable CI by one round (None if idle)."""
        queue = self.refinement_queue()
        if not queue:
            return None
        entry = queue[0]
        return await self._run_round(self._configs[entry.digest], entry)
