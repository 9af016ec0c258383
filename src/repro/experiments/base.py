"""Experiment-harness plumbing: scales, results, comparisons.

Every paper table/figure has a module here exposing
``run(scale=None, base_seed=0) -> ExperimentResult``.  The ``REPRO_SCALE``
environment variable picks the fidelity:

========  ======  ==================  =========================
scale     runs    system size         purpose
========  ======  ==================  =========================
smoke     4       0.05x paper (100 TB)  CI / unit tests
small     25      0.25x paper (500 TB)  default benchmark runs
paper     100     1x paper (2 PB)       full reproduction
========  ======  ==================  =========================

P(loss) scales linearly with system size (paper §3.7 and Figure 8), so the
*shape* of every result — who wins, by what factor, where curves cross — is
preserved at reduced scale; EXPERIMENTS.md records the scale used for each
published number.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..config import SystemConfig


@dataclass(frozen=True)
class Scale:
    """Fidelity knob for the benchmark harness."""

    name: str
    n_runs: int
    data_factor: float        # multiplier on the paper's 2 PB
    n_jobs: int | None        # Monte-Carlo process parallelism

    def size_config(self, cfg: SystemConfig) -> SystemConfig:
        """Shrink a paper-scale config to this scale."""
        return cfg.with_(total_user_bytes=cfg.total_user_bytes
                         * self.data_factor)


SCALES: dict[str, Scale] = {
    "smoke": Scale("smoke", n_runs=4, data_factor=0.05, n_jobs=None),
    "small": Scale("small", n_runs=25, data_factor=0.25, n_jobs=None),
    "paper": Scale("paper", n_runs=100, data_factor=1.0, n_jobs=None),
}

#: Estimators the p_loss figure drivers accept (``--estimator`` on the
#: CLI).  ``naive`` counts losing lifetimes on the DES; ``bulk`` counts
#: them on the vectorized window-overlap engine
#: (:mod:`repro.reliability.bulk` and ``docs/BULK_ENGINE.md``) —
#: statistically conformant with ``naive`` and orders of magnitude
#: faster.
ESTIMATORS: tuple[str, ...] = ("naive", "bulk")


def run_p_loss_sweep(points: dict[str, SystemConfig], estimator: str,
                     n_runs: int, base_seed: int, n_jobs: int | None,
                     sweep_name: str) -> dict[str, Any]:
    """Dispatch a labelled p_loss sweep to the selected estimator.

    Always returns ``{label: MonteCarloResult}`` so figure drivers render
    identically whichever estimator produced the numbers.
    """
    from ..reliability.montecarlo import sweep
    if estimator not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    return sweep(points, n_runs=n_runs, base_seed=base_seed, n_jobs=n_jobs,
                 sweep_name=sweep_name,
                 engine="bulk" if estimator == "bulk" else "des")


def current_scale() -> Scale:
    """The scale selected by ``REPRO_SCALE`` (default: small).

    ``REPRO_JOBS`` overrides Monte-Carlo process parallelism (0 = all
    cores); the default is serial, which is optimal on single-core runners
    and fully deterministic everywhere.
    """
    import dataclasses
    name = os.environ.get("REPRO_SCALE", "small").lower()
    try:
        scale = SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r}; expected one of {sorted(SCALES)}")
    jobs = os.environ.get("REPRO_JOBS")
    if jobs is not None:
        scale = dataclasses.replace(scale, n_jobs=int(jobs))
    return scale


@dataclass
class ExperimentResult:
    """Rows of a regenerated table/figure plus context."""

    experiment: str            # e.g. "figure3a"
    description: str
    scale: Scale
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Runs behind each row, when not the scale's ``n_runs``.
    runs: int | None = None

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def column(self, name: str) -> list[Any]:
        return [r.get(name) for r in self.rows]

    def render(self) -> str:
        """Aligned text table, the way the bench harness prints results."""
        from .report import render_table
        runs = self.scale.n_runs if self.runs is None else self.runs
        header = (f"== {self.experiment}: {self.description} "
                  f"[scale={self.scale.name}, runs={runs}] ==")
        body = render_table(self.columns, self.rows)
        notes = "".join(f"\n  note: {n}" for n in self.notes)
        return f"{header}\n{body}{notes}"
