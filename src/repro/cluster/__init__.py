"""Simulated cluster hardware: nodes, CPUs, memory, RNICs, and the fabric.

This package is the substitute for the paper's physical testbed (ten nodes,
2x12-core Xeon E5-2650 v4, ConnectX-4 100 Gbps InfiniBand, SB7890 switch).
Every latency/throughput constant comes from the paper's own measurements and
lives in :mod:`repro.cluster.timing`.
"""

from repro.cluster.fabric import Fabric
from repro.cluster.memory import MemoryError_, MemoryRegion, PhysicalMemory
from repro.cluster.node import Cluster, Node
from repro.cluster.rnic import Rnic
from repro.cluster import timing

__all__ = [
    "Cluster",
    "Fabric",
    "MemoryError_",
    "MemoryRegion",
    "Node",
    "PhysicalMemory",
    "Rnic",
    "timing",
]
