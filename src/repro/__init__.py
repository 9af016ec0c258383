"""repro — FARM: distributed recovery for large-scale storage systems.

A full reproduction of *Evaluation of Distributed Recovery in Large-Scale
Storage Systems* (Qin Xin, Ethan L. Miller, Thomas J. E. Schwarz —
HPDC 2004), built as a reusable Python library:

* :mod:`repro.sim` — discrete-event simulation engine (PARSEC substitute);
* :mod:`repro.redundancy` — (m, n) and mixed schemes and their
  survival predicates;
* :mod:`repro.disks` — drive model with bathtub failure rates (Table 1);
* :mod:`repro.placement` — RUSH-style decentralized placement with
  candidate lists, plus a vectorized statistical equivalent;
* :mod:`repro.cluster` — failure-domain topology and workload;
* :mod:`repro.reliability` — the DES engine (**FARM** and the
  traditional-RAID baseline), Monte-Carlo sweeps, scripted scenarios,
  Markov/analytic cross-checks;
* :mod:`repro.faults` — latent errors, outages, bursts, stragglers;
* :mod:`repro.experiments` — regenerates every table and figure of the
  paper's evaluation.

Quickstart::

    from repro import SystemConfig, estimate_p_loss

    cfg = SystemConfig()                       # the paper's 2 PB base system
    farm = estimate_p_loss(cfg, n_runs=20)
    raid = estimate_p_loss(cfg.with_(use_farm=False), n_runs=20)
    print(farm.p_loss, "vs", raid.p_loss)
"""

from .config import PAPER_BASE, SystemConfig
from .disks import BathtubFailureModel, DiskVintage
from .placement import RandomPlacement, RushPlacement
from .redundancy import PAPER_SCHEMES, RedundancyScheme
from .reliability import (MonteCarloResult, PolicyConfig, RecoveryStats,
                          ReliabilitySimulation, Scenario, estimate_p_loss,
                          wilson_interval)
from .sim import RandomStreams, Simulator

__version__ = "1.0.0"

__all__ = [
    "SystemConfig", "PAPER_BASE",
    "ReliabilitySimulation", "RecoveryStats", "PolicyConfig", "Scenario",
    "estimate_p_loss", "MonteCarloResult", "wilson_interval",
    "RedundancyScheme", "PAPER_SCHEMES",
    "DiskVintage", "BathtubFailureModel",
    "RushPlacement", "RandomPlacement",
    "Simulator", "RandomStreams",
    "__version__",
]
