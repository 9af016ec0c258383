"""Cluster substrate: failure-domain topology and workload."""

from .topology import Topology, enforce_domain_constraint
from .workload import ConstantWorkload, DiurnalWorkload

__all__ = [
    "Topology", "enforce_domain_constraint",
    "DiurnalWorkload", "ConstantWorkload",
]
