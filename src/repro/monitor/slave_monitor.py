"""Slave monitors: sample node statistics periodically."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Iterable, List, Tuple

from repro.cluster.node import NodeState
from repro.monitor.statistics import NodeStats
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.telemetry.events import NodeSampled

if TYPE_CHECKING:  # pragma: no cover - avoids a monitor <-> yarn cycle
    from repro.cluster.network import Network
    from repro.cluster.node import Node
    from repro.monitor.central_monitor import CentralMonitor
    from repro.sim.resources import Link
    from repro.yarn.node_manager import NodeManager

DEFAULT_SAMPLE_INTERVAL = 5.0


class SlaveMonitor:
    """Gathers node statistics and forwards them to the central monitor.

    Mirrors the paper's slave monitors running inside each node manager
    (Section 3): they sample local CPU/memory/network state and push it
    upstream on a fixed period.  Each :meth:`start` call runs one timer
    over the node managers it is given, so a node is sampled from the
    instant it is started and every :data:`DEFAULT_SAMPLE_INTERVAL`
    seconds after, until it departs the cluster.

    A tick reads each live node once into a
    :data:`~repro.monitor.statistics.NodeRow` and hands the tick's rows
    to :meth:`CentralMonitor.ingest` in one call.  Only when a
    subscriber wants the ``node`` category does it also publish each row
    as a :class:`~repro.telemetry.events.NodeSampled` event, in node
    order; a run nobody watches builds no per-sample object.
    """

    def __init__(
        self, sim: Simulator, network: "Network", monitor: "CentralMonitor"
    ) -> None:
        self.sim = sim
        self.network = network
        self.monitor = monitor

    def start(self, node_managers: Iterable["NodeManager"]) -> None:
        """Sample *node_managers* now and on every tick after."""
        self.sim.process(self._loop(list(node_managers)), name="slave-monitor")

    def _loop(
        self, node_managers: List["NodeManager"]
    ) -> Generator[Event, object, None]:
        sim = self.sim
        ingest = self.monitor.ingest
        utilizations = self.network.scheduler.utilizations
        # The live node managers' nodes and their NIC links (RX, TX per
        # node), kept across ticks and rebuilt after a node departs.
        nodes: List["Node"] = []
        links: Tuple["Link", ...] = ()
        while True:
            if not nodes or any(node.state is NodeState.DEPARTED for node in nodes):
                # Departure is permanent; the timer ends with its last node.
                node_managers = [
                    nm for nm in node_managers if nm.node.state is not NodeState.DEPARTED
                ]
                if not node_managers:
                    return
                nodes = [nm.node for nm in node_managers]
                links = self.network.nic_links(nodes)
            now = sim.now
            nics = utilizations(links)
            rows = [
                (
                    node.node_id,
                    now,
                    node.cpu_utilization(),
                    node.memory_utilization(),
                    nm.running_containers,
                    rx,
                    tx,
                )
                for nm, node, rx, tx in zip(node_managers, nodes, nics[0::2], nics[1::2])
            ]
            ingest(rows)
            tel = sim.telemetry
            if tel is not None and tel.wants("node"):
                for row in rows:
                    tel.emit(NodeSampled(now, NodeStats(*row)))
            yield sim.timeout(DEFAULT_SAMPLE_INTERVAL)
