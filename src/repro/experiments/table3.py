"""Table 3 / Figure 6 — disk space utilization under FARM.

The paper distributes data on 1,000 1-TB disks at 40% average utilization,
simulates six years of failures with FARM recovery, and reports (i) the
capacity used by ten randomly-selected disks before and after, and (ii) the
mean and standard deviation of per-disk utilization.  Findings: the mean
utilization grows (surviving disks absorb the redistributed redundancy of
failed ones), smaller redundancy groups keep the standard deviation lower,
and failed disks carry no load.

This experiment runs the DES engine with the RUSH placement (the balance
property under test is the placement's) and reads the finished engine's
per-disk state.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..reliability.simulation import ReliabilitySimulation
from ..sim.rng import RandomStreams
from ..units import GB, TB
from .base import ExperimentResult, Scale, current_scale

GROUP_SIZES_BYTES = (1 * GB, 10 * GB, 50 * GB)
N_DISKS = 1000
SAMPLED_DISKS = 10


def _config_for(group_bytes: float, n_disks: int) -> SystemConfig:
    """A system whose geometry forces exactly ``n_disks`` drives."""
    cfg = SystemConfig(group_user_bytes=group_bytes, placement="rush")
    user = n_disks * cfg.vintage.capacity_bytes * cfg.target_utilization \
        / cfg.scheme.stretch
    return cfg.with_(total_user_bytes=user)


def run(scale: Scale | None = None, base_seed: int = 0,
        group_sizes_bytes: tuple[float, ...] | None = None,
        n_disks: int = N_DISKS) -> ExperimentResult:
    scale = scale or current_scale()
    sizes = group_sizes_bytes or GROUP_SIZES_BYTES
    result = ExperimentResult(
        experiment="table3",
        description=("per-disk utilization (GB): mean/std at t=0 and after "
                     "6 years of FARM recovery, by group size"),
        scale=scale,
        columns=["group_gb", "when", "mean_gb", "std_gb",
                 "failed_disks", "sample_gb"],
    )
    for size in sizes:
        cfg = _config_for(size, n_disks)
        engine = ReliabilitySimulation(cfg, seed=base_seed)
        sample = RandomStreams(base_seed).get("table3-sample").choice(
            n_disks, size=SAMPLED_DISKS, replace=False)
        sample.sort()

        initial = _utilization_bytes(engine, n_disks)
        result.add(group_gb=size / GB, when="initial",
                   mean_gb=float(initial.mean()) / GB,
                   std_gb=float(initial.std()) / GB,
                   failed_disks=0,
                   sample_gb=_fmt_sample(initial[sample]))

        engine.run()
        final = _utilization_bytes(engine, n_disks)
        online = np.array(engine.alive[:n_disks])
        result.add(group_gb=size / GB, when="after 6y",
                   mean_gb=float(final[online].mean()) / GB,
                   std_gb=float(final[online].std()) / GB,
                   failed_disks=int((~online).sum()),
                   sample_gb=_fmt_sample(final[sample]))
    result.notes.append(
        "Paper: means rise from 400 GB as survivors absorb redistributed "
        "data; smaller groups give a lower standard deviation; failed "
        "sampled disks show zero load (Figure 6).")
    return result


def _utilization_bytes(engine: ReliabilitySimulation,
                       n_disks: int) -> np.ndarray:
    """Used bytes of the first ``n_disks`` disks (0 for failed disks,
    matching Figure 6)."""
    used = np.array(engine.used_blocks[:n_disks], dtype=float)
    return np.where(engine.alive[:n_disks], used * engine.block_bytes, 0.0)


def _fmt_sample(values: np.ndarray) -> str:
    return "[" + " ".join(f"{v / GB:.0f}" for v in values) + "]"
