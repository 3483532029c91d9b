"""Cluster network: per-node NICs, rack uplinks, and a core switch.

All transfers share one cluster-wide :class:`FlowScheduler`; a transfer
from node A to node B traverses A's TX link and B's RX link, plus both
racks' uplinks when it crosses racks.  Rates are max-min fair across
everything in flight, so shuffle-heavy phases create exactly the kind
of contention the paper's monitor observes as network hot spots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.node import FROZEN_CAPACITY, Node
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.resources import FlowScheduler, Link

if TYPE_CHECKING:
    from repro.faults.network_state import NetworkFaultState

#: Typical top-of-rack oversubscription: a rack uplink carries the
#: aggregate NIC bandwidth of its members divided by this factor.
RACK_OVERSUBSCRIPTION = 4.0


class Network:
    """The cluster fabric connecting nodes."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        rack_uplink_bw: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.scheduler = FlowScheduler(sim, name="net")
        self._tx: Dict[int, Link] = {}
        self._rx: Dict[int, Link] = {}
        racks = sorted({n.rack for n in self.nodes})
        self._uplink: Dict[int, Link] = {}
        for node in self.nodes:
            bw = node.resources.nic_bw
            self._tx[node.node_id] = Link(f"{node.hostname}.tx", bw)
            self._rx[node.node_id] = Link(f"{node.hostname}.rx", bw)
        for rack in racks:
            members = [n for n in self.nodes if n.rack == rack]
            if rack_uplink_bw is None:
                bw = sum(n.resources.nic_bw for n in members) / RACK_OVERSUBSCRIPTION
            else:
                bw = rack_uplink_bw
            self._uplink[rack] = Link(f"rack{rack}.uplink", bw)
        # Aggregate fabric capacity for scatter-style fetches (shuffle):
        # sources are spread across the cluster, so the constraint is the
        # sum of uplink capacities rather than any single path.
        core_bw = max(sum(lnk.capacity for lnk in self._uplink.values()), 1.0)
        self._core = Link("fabric.core", core_bw)
        # -- fault bookkeeping (mirrors Node's base-capacity idiom) -----
        self._base_nic: Dict[int, float] = {
            n.node_id: n.resources.nic_bw for n in self.nodes
        }
        self._base_uplink: Dict[int, float] = {
            rack: lnk.capacity for rack, lnk in self._uplink.items()
        }
        self._nic_frozen: Set[int] = set()
        self._partition_depth: Dict[int, int] = {rack: 0 for rack in self._uplink}
        #: Armed by the fault injector when the plan has network kinds;
        #: ``None`` means the gray-failure fetch path stays dormant.
        self.faults: Optional["NetworkFaultState"] = None

    # -- elastic membership -----------------------------------------------
    def attach_node(self, node: Node) -> None:
        """Wire a freshly joined node into the fabric.

        The newcomer gets its own TX/RX links; its rack's uplink (and
        the core) keep their provisioned capacity -- racking one more
        machine into an existing ToR switch does not widen the trunk.
        """
        if node.node_id in self._tx:
            raise ValueError(f"node {node.node_id} is already attached")
        if node.rack not in self._uplink:
            raise ValueError(f"node {node.node_id} names unknown rack {node.rack}")
        bw = node.resources.nic_bw
        self.nodes.append(node)
        self._tx[node.node_id] = Link(f"{node.hostname}.tx", bw)
        self._rx[node.node_id] = Link(f"{node.hostname}.rx", bw)
        self._base_nic[node.node_id] = bw

    # -- fault surfaces ---------------------------------------------------
    def scale_node_nic(self, node_id: int, factor: float) -> None:
        """Rescale a node's TX and RX links to *factor* of nominal."""
        if not (0.0 < factor <= 1.0):
            raise ValueError(f"NIC factor must be in (0, 1], got {factor}")
        if node_id in self._nic_frozen:
            return
        bw = self._base_nic[node_id] * factor
        self.scheduler.set_link_capacity(self._tx[node_id], bw)
        self.scheduler.set_link_capacity(self._rx[node_id], bw)

    def restore_node_nic(self, node_id: int) -> None:
        """Heal a degraded NIC back to nominal (no-op once frozen)."""
        self.scale_node_nic(node_id, 1.0)

    def freeze_node_nic(self, node_id: int) -> None:
        """Permanently stall a dead node's NIC (crash in network mode)."""
        self._nic_frozen.add(node_id)
        self.scheduler.set_link_capacity(self._tx[node_id], FROZEN_CAPACITY)
        self.scheduler.set_link_capacity(self._rx[node_id], FROZEN_CAPACITY)

    def partition_rack(self, rack: int) -> None:
        """Stall a rack's uplink; nested partitions stack (depth count)."""
        self._partition_depth[rack] += 1
        if self._partition_depth[rack] == 1:
            self.scheduler.set_link_capacity(self._uplink[rack], FROZEN_CAPACITY)

    def heal_rack(self, rack: int) -> None:
        """Undo one :meth:`partition_rack`; heals at depth zero."""
        if self._partition_depth[rack] == 0:
            return
        self._partition_depth[rack] -= 1
        if self._partition_depth[rack] == 0:
            self.scheduler.set_link_capacity(self._uplink[rack], self._base_uplink[rack])

    def rack_partitioned(self, rack: int) -> bool:
        return self._partition_depth[rack] > 0

    def transfer(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        extra_links: Sequence[Link] = (),
        label: str = "",
    ) -> Event:
        """Stream *nbytes* from *src* to *dst*; returns a completion event.

        The flow traverses the source's TX link, both rack uplinks when
        it crosses racks, the destination's RX link, then *extra_links*
        (e.g. a reducer's copier link), so a degraded NIC or partitioned
        rack stalls exactly the transfers that touch it.  Node-local
        "transfers" bypass the fabric entirely (loopback) and complete
        on the next calendar step, matching how Hadoop serves node-local
        shuffle segments from the local filesystem.
        """
        if src.node_id == dst.node_id:
            ev = self.sim.event()
            ev.succeed(0.0)
            return ev
        links: List[Link] = [self._tx[src.node_id]]
        if src.rack != dst.rack:
            links.append(self._uplink[src.rack])
            links.append(self._uplink[dst.rack])
        links.append(self._rx[dst.node_id])
        links.extend(extra_links)
        return self.scheduler.transfer(links, nbytes, label=label)

    def fetch_into(
        self,
        dst: Node,
        nbytes: float,
        extra_links: Sequence[Link] = (),
        label: str = "",
    ) -> Event:
        """An aggregated many-sources-to-one fetch (shuffle rounds).

        The flow is charged to the destination's RX link and the fabric
        core (sources are spread out, so no single TX link binds); the
        caller may thread extra links through, e.g. a per-reducer copier
        link whose capacity encodes ``shuffle.parallelcopies``.
        """
        links: List[Link] = [self._core, self._rx[dst.node_id], *extra_links]
        return self.scheduler.transfer(links, nbytes, label=label)

    # -- monitoring -------------------------------------------------------
    def nic_links(self, nodes: Sequence[Node]) -> Tuple[Link, ...]:
        """Each node's RX then TX link, in node order.

        The slave monitor keeps this tuple and reads all of its nodes'
        NICs on each tick through one
        :meth:`FlowScheduler.utilizations` call, the tuple being the
        memo key; that is bit-identical to a
        :meth:`FlowScheduler.utilization` call per link.
        """
        return tuple(
            link
            for node in nodes
            for link in (self._rx[node.node_id], self._tx[node.node_id])
        )
