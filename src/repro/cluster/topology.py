"""Cluster construction: specs and the paper's 19-node testbed."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cluster.network import Network
from repro.cluster.node import Node, NodeResources
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster to build."""

    #: Number of slave (worker) nodes; the master is not modelled as a
    #: compute node because it runs no containers in the paper's setup.
    num_slaves: int = 18
    #: Rack sizes; must sum to ``num_slaves``.
    racks: Sequence[int] = (9, 9)
    node_resources: NodeResources = field(default_factory=NodeResources)
    rack_uplink_bw: Optional[float] = None

    def __post_init__(self) -> None:
        if sum(self.racks) != self.num_slaves:
            raise ValueError(
                f"rack sizes {tuple(self.racks)} do not sum to num_slaves={self.num_slaves}"
            )


def paper_cluster_spec() -> ClusterSpec:
    """The evaluation testbed: 19 nodes (1 master + 18 slaves), 2 racks.

    The paper arranges nine and ten nodes per rack; the master occupies
    one slot of the ten-node rack, so slaves split 9/9.
    """
    return ClusterSpec(num_slaves=18, racks=(9, 9))


class Cluster:
    """A built cluster: nodes plus the network fabric."""

    def __init__(self, sim: Simulator, spec: ClusterSpec) -> None:
        self.sim = sim
        self.spec = spec
        self.nodes: List[Node] = []
        node_id = 0
        for rack_idx, size in enumerate(spec.racks):
            for _ in range(size):
                self.nodes.append(Node(sim, node_id, rack_idx, spec.node_resources))
                node_id += 1
        self.network = Network(sim, self.nodes, rack_uplink_bw=spec.rack_uplink_bw)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def add_node(self, rack: int) -> Node:
        """Register a brand-new node mid-run (elastic join).

        The newcomer gets the next sequential id (``node_id`` doubles as
        the index into ``nodes``, so departed nodes stay in the list and
        joins only ever append) and is attached to *rack*'s existing
        fabric -- its NIC links join the rack uplink without changing
        the uplink's capacity, exactly like racking a fresh machine into
        a ToR switch that was provisioned ahead of time.
        """
        if not (0 <= rack < len(self.spec.racks)):
            raise ValueError(f"unknown rack {rack}, have {len(self.spec.racks)} rack(s)")
        node = Node(self.sim, len(self.nodes), rack, self.spec.node_resources)
        self.nodes.append(node)
        self.network.attach_node(node)
        return node

    @property
    def total_yarn_memory(self) -> int:
        return sum(n.yarn_memory_total for n in self.nodes)

    @property
    def total_yarn_vcores(self) -> int:
        return sum(n.yarn_vcores_total for n in self.nodes)

    @property
    def live_nodes(self) -> List[Node]:
        """Nodes currently in service (not crashed, departed, or dead)."""
        return [n for n in self.nodes if n.alive]

    @property
    def live_yarn_memory(self) -> int:
        return sum(n.yarn_memory_total for n in self.nodes if n.alive)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Cluster {len(self.nodes)} slaves, {len(self.spec.racks)} racks>"


def build_cluster(sim: Simulator, spec: Optional[ClusterSpec] = None) -> Cluster:
    """Build a cluster; defaults to the paper's 19-node testbed."""
    return Cluster(sim, spec or paper_cluster_spec())
