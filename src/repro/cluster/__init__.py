"""Simulated cluster hardware: nodes, disks, NICs, racks.

The default topology mirrors the paper's 19-node testbed: one master
and 18 slaves split across two racks (9 + 10 nodes including the
master), each slave with 8 physical cores, 8 GB of memory, a single
SATA disk, and a 1 Gbps NIC.
"""

from repro.cluster.container import Container, ContainerState
from repro.cluster.network import Network
from repro.cluster.node import Node, NodeResources, NodeState
from repro.cluster.topology import Cluster, ClusterSpec, build_cluster, paper_cluster_spec

__all__ = [
    "Cluster",
    "ClusterSpec",
    "Container",
    "ContainerState",
    "Network",
    "Node",
    "NodeResources",
    "NodeState",
    "build_cluster",
    "paper_cluster_spec",
]
