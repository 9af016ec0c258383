"""Cluster substrate: failure-domain topology, detection, workload."""

from .detection import (ConstantDetection, DetectionModel, HeartbeatDetection,
                        UniformDetection)
from .topology import Topology, enforce_domain_constraint
from .workload import ConstantWorkload, DiurnalWorkload

__all__ = [
    "Topology", "enforce_domain_constraint",
    "DetectionModel", "ConstantDetection", "UniformDetection",
    "HeartbeatDetection",
    "DiurnalWorkload", "ConstantWorkload",
]
