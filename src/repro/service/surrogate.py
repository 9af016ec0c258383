"""Interpolation surrogates over precomputed sweep grids.

Tier 3 of the forecast cascade: when neither closed form's envelope
covers a config but a precomputed Monte-Carlo *grid* brackets it, the
service answers by multilinear interpolation instead of burning live
runs.  A grid is a full factorial sweep over a few numeric config fields
around a base config; coverage is *exact* on every non-axis field (the
canonical dicts must match) and *bracketing* on the axes — a query
outside the hull is an honest refusal, never an extrapolation.

P(loss) is near-linear in system scale (paper Fig. 8) and smooth in
detection latency and group size over the sweep ranges the figures use,
which is what makes a multilinear surrogate trustworthy between the
points the experiments already computed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import SystemConfig, config_to_dict
from ..reliability.stats import Proportion, wilson_from_rate

#: Schema tag of a grid file.
GRID_SCHEMA = "repro.surrogate-grid.v1"


@dataclass(frozen=True)
class Axis:
    """One swept config field with its sorted grid values."""

    field: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError(f"axis {self.field!r} needs >= 2 values")
        if list(self.values) != sorted(set(self.values)):
            raise ValueError(f"axis {self.field!r} values must be "
                             f"strictly increasing")


class SurrogateGrid:
    """A factorial p_loss table with multilinear interpolation."""

    def __init__(self, name: str, base: dict, axes: tuple[Axis, ...],
                 p_loss: np.ndarray, n_runs: int) -> None:
        if not axes:
            raise ValueError("a grid needs at least one axis")
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        shape = tuple(len(a.values) for a in axes)
        values = np.asarray(p_loss, dtype=float)
        if values.shape != shape:
            raise ValueError(f"p_loss shape {values.shape} does not "
                             f"match axes {shape}")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("p_loss values must be in [0, 1]")
        self.name = name
        self.base = dict(base)
        self.axes = axes
        self.values = values
        self.n_runs = n_runs

    # ------------------------------------------------------------------ #
    def covers(self, cfg: SystemConfig) -> bool:
        """Exact match off-axis, inside the hull on-axis."""
        d = config_to_dict(cfg)
        for axis in self.axes:
            raw = d.pop(axis.field, None)
            if not isinstance(raw, (int, float)):
                return False
            if not axis.values[0] <= float(raw) <= axis.values[-1]:
                return False
        base = dict(self.base)
        for axis in self.axes:
            base.pop(axis.field, None)
        return d == base

    def interpolate(self, cfg: SystemConfig) -> float:
        """Multilinear P(loss) at ``cfg`` (requires :meth:`covers`)."""
        if not self.covers(cfg):
            raise ValueError(f"grid {self.name!r} does not cover this "
                             f"config; interpolation would extrapolate")
        d = config_to_dict(cfg)
        corners: list[tuple[int, int]] = []
        weights: list[tuple[float, float]] = []
        for axis in self.axes:
            x = float(d[axis.field])
            vals = axis.values
            j = int(np.searchsorted(vals, x, side="right")) - 1
            j = min(max(j, 0), len(vals) - 2)
            span = vals[j + 1] - vals[j]
            t = (x - vals[j]) / span
            corners.append((j, j + 1))
            weights.append((1.0 - t, t))
        total = 0.0
        for picks in itertools.product(*[(0, 1)] * len(self.axes)):
            idx = tuple(corners[k][pick] for k, pick in enumerate(picks))
            w = 1.0
            for k, pick in enumerate(picks):
                w *= weights[k][pick]
            total += w * float(self.values[idx])
        return min(1.0, max(0.0, total))

    def proportion(self, cfg: SystemConfig,
                   confidence: float = 0.95) -> Proportion:
        """Interpolated estimate with a Wilson CI at the grid's budget.

        The surrogate inherits the sampling noise of the sweep it was
        built from, so the honest interval treats the interpolated rate
        as if observed over one grid point's ``n_runs`` — interpolation
        cannot *add* information the grid never had.
        """
        return wilson_from_rate(self.interpolate(cfg), float(self.n_runs),
                                confidence)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "schema": GRID_SCHEMA,
            "name": self.name,
            "base": self.base,
            "axes": [{"field": a.field, "values": list(a.values)}
                     for a in self.axes],
            "n_runs": self.n_runs,
            "p_loss": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SurrogateGrid":
        if data.get("schema") != GRID_SCHEMA:
            raise ValueError(f"not a {GRID_SCHEMA} grid: "
                             f"{data.get('schema')!r}")
        axes = tuple(Axis(field=str(a["field"]),
                          values=tuple(float(v) for v in a["values"]))
                     for a in data["axes"])
        return cls(name=str(data.get("name", "grid")),
                   base=dict(data["base"]), axes=axes,
                   p_loss=np.asarray(data["p_loss"], dtype=float),
                   n_runs=int(data["n_runs"]))


class GridStore:
    """All loaded grids; first cover wins on lookup."""

    def __init__(self, grids: list[SurrogateGrid] | None = None) -> None:
        self.grids = list(grids or [])

    def __len__(self) -> int:
        return len(self.grids)

    def add(self, grid: SurrogateGrid) -> None:
        self.grids.append(grid)

    def lookup(self, cfg: SystemConfig) -> SurrogateGrid | None:
        for grid in self.grids:
            if grid.covers(cfg):
                return grid
        return None

    @classmethod
    def load_dir(cls, path: str | Path) -> "GridStore":
        """Load every ``*.json`` grid under ``path`` (sorted by name).

        A missing directory is an empty store; a malformed grid file is
        an error — a silently dropped grid would demote its queries to
        the live tier without anyone noticing.
        """
        store = cls()
        root = Path(path)
        if not root.is_dir():
            return store
        for file in sorted(root.glob("*.json")):
            data = json.loads(file.read_text(encoding="utf-8"))
            store.add(SurrogateGrid.from_dict(data))
        return store

    def save_dir(self, path: str | Path) -> None:
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        for grid in self.grids:
            out = root / f"{grid.name}.json"
            out.write_text(json.dumps(grid.to_dict()) + "\n",
                           encoding="utf-8")


def build_grid(base: SystemConfig, axes: dict[str, list[float]],
               n_runs: int = 100, base_seed: int = 0,
               engine: str = "bulk", n_jobs: int | None = None,
               name: str = "grid") -> SurrogateGrid:
    """Precompute a factorial grid by sweeping the Monte-Carlo engines.

    One :func:`repro.reliability.montecarlo.sweep` covers the whole
    cartesian product, so the persistent pool stays saturated and every
    point shares the deterministic seed schedule.
    """
    axis_objs = tuple(Axis(field=f, values=tuple(float(v) for v in vs))
                      for f, vs in axes.items())
    fields = [a.field for a in axis_objs]
    combos = list(itertools.product(*[a.values for a in axis_objs]))
    configs = {
        "/".join(f"{f}={v:g}" for f, v in zip(fields, combo)):
            base.with_(**{f: _coerce_field(base, f, v)
                          for f, v in zip(fields, combo)})
        for combo in combos
    }
    from ..reliability.montecarlo import sweep
    results = sweep(configs, n_runs=n_runs, base_seed=base_seed,
                    n_jobs=n_jobs, engine=engine,
                    sweep_name=f"surrogate:{name}")
    shape = tuple(len(a.values) for a in axis_objs)
    values = np.array([results[label].p_loss.estimate
                       for label in configs]).reshape(shape)
    return SurrogateGrid(name=name, base=config_to_dict(base),
                         axes=axis_objs, p_loss=values, n_runs=n_runs)


def _coerce_field(base: SystemConfig, field: str, value: float):
    """Keep int-typed config fields int under float axis values."""
    current = getattr(base, field)
    if isinstance(current, int) and not isinstance(current, bool):
        return int(value)
    return value
