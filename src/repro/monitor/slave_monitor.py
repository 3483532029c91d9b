"""Slave monitors: sample node statistics periodically."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Iterable, List, Sequence

from repro.cluster.node import NodeState
from repro.monitor.statistics import NodeStats
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.telemetry.events import NodeSampled

if TYPE_CHECKING:  # pragma: no cover - avoids a monitor <-> yarn cycle
    from repro.cluster.network import Network
    from repro.yarn.node_manager import NodeManager

DEFAULT_SAMPLE_INTERVAL = 5.0


class SlaveMonitor:
    """Gathers node statistics and forwards them to the central monitor.

    Mirrors the paper's slave monitors running inside each node manager
    (Section 3): they sample local CPU/memory/network state and push it
    upstream on a fixed period.  Each :meth:`start` call runs one timer
    over the node managers it is given, so a node is sampled from the
    instant it is started and every :data:`DEFAULT_SAMPLE_INTERVAL`
    seconds after, until it departs the cluster.  Every sample is
    published on the simulator's telemetry bus as a ``node``-category
    :class:`~repro.telemetry.events.NodeSampled` event, in node order
    (skipped when no bus -- or no subscriber -- is attached).
    """

    def __init__(self, sim: Simulator, network: "Network") -> None:
        self.sim = sim
        self.network = network

    def start(self, node_managers: Iterable["NodeManager"]) -> None:
        """Sample *node_managers* now and on every tick after."""
        self.sim.process(self._loop(list(node_managers)), name="slave-monitor")

    def sample(self, node_managers: Sequence["NodeManager"]) -> List[NodeStats]:
        """One :class:`NodeStats` per node manager, in the given order."""
        nodes = [nm.node for nm in node_managers]
        nics = self.network.nic_utilizations(nodes)
        now = self.sim.now
        # Positional, in field order (node_id, time, cpu, memory, running
        # containers, rx, tx): keywords made this dataclass's init take
        # 2.5x as long, once per node per tick.
        return [
            NodeStats(
                node.node_id,
                now,
                node.cpu_utilization(),
                node.memory_utilization(),
                nm.running_containers,
                rx,
                tx,
            )
            for nm, node, (rx, tx) in zip(node_managers, nodes, nics)
        ]

    def _loop(
        self, node_managers: List["NodeManager"]
    ) -> Generator[Event, object, None]:
        while True:
            # Departure is permanent; the timer ends with its last node.
            node_managers = [
                nm for nm in node_managers if nm.node.state is not NodeState.DEPARTED
            ]
            if not node_managers:
                return
            tel = self.sim.telemetry
            if tel is not None and tel.wants("node"):
                for stats in self.sample(node_managers):
                    tel.emit(NodeSampled(stats.time, stats))
            yield self.sim.timeout(DEFAULT_SAMPLE_INTERVAL)
