"""Node managers: per-node container execution and slave monitoring."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from repro.cluster.container import Container, ContainerState
from repro.cluster.node import Node, NodeState
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event, Process
from repro.telemetry.events import ContainerKilled

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import Network


class KillReason:
    """Why a container was killed; carried as the interrupt cause.

    ``kind`` feeds :attr:`TaskStats.failure_kind` so the tuner can tell
    environmental failures (preemption, node loss) apart from
    config-induced ones (OOM).
    """

    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str = "") -> None:
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<KillReason {self.kind}: {self.detail}>"


class NodeManager:
    """Runs containers on one node and reports its resource state.

    MRONLINE's slave monitor reads each node manager's running
    containers, and its node's utilization, on every tick; see
    :class:`repro.monitor.slave_monitor.SlaveMonitor`.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        network: Optional["Network"] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.network = network
        self._running: Dict[int, Process] = {}
        self._container_of: Dict[int, Container] = {}
        #: Completed-container observers (e.g. monitors).
        self.on_container_finished: List[Callable[[Container], None]] = []
        #: Diagnostics: containers killed on this node, by reason kind.
        self.kills: Dict[str, int] = {}

    def launch(self, container: Container, task: Generator[Event, object, object]) -> Process:
        """Start *task* inside *container*; returns the task process."""
        if container.node is not self.node:
            raise SimulationError(
                f"{container!r} belongs to {container.node.hostname}, "
                f"not {self.node.hostname}"
            )
        if container.state is not ContainerState.ALLOCATED:
            raise SimulationError(f"cannot launch into {container!r}")
        if self.node.state is not NodeState.ACTIVE:
            raise SimulationError(
                f"{self.node.hostname} is {self.node.state.value}; "
                f"cannot launch {container!r}"
            )
        container.state = ContainerState.RUNNING
        process = self.sim.process(task, name=f"container-{container.container_id}")

        def _done(_ev: Event) -> None:
            container.state = ContainerState.COMPLETED
            self._running.pop(container.container_id, None)
            self._container_of.pop(container.container_id, None)
            for observer in self.on_container_finished:
                observer(container)

        process.add_callback(_done)
        self._running[container.container_id] = process
        self._container_of[container.container_id] = container
        return process

    # -- kills --------------------------------------------------------------
    def kill_container(self, container: Container, reason: KillReason) -> bool:
        """Kill a running container: stop its flows, interrupt its task."""
        process = self._running.get(container.container_id)
        if process is None or process.triggered:
            return False
        if container.tag is not None:
            prefix = str(container.tag)
            self.node.cancel_task_flows(prefix)
            if self.network is not None:
                self.network.scheduler.cancel_prefix(prefix)
        self.kills[reason.kind] = self.kills.get(reason.kind, 0) + 1
        tel = self.sim.telemetry
        if tel is not None and tel.wants("yarn"):
            tel.emit(
                ContainerKilled(
                    time=self.sim.now,
                    node_id=self.node.node_id,
                    container_id=container.container_id,
                    reason=reason.kind,
                    detail=reason.detail,
                )
            )
            tel.increment("yarn.containers_killed")
        process.interrupt(reason)
        return True

    def kill_some(self, count: int, reason: KillReason) -> int:
        """Kill up to *count* running containers (oldest grants first)."""
        victims = sorted(self._container_of.values(), key=lambda c: c.container_id)
        killed = 0
        for container in victims:
            if killed >= count:
                break
            if self.kill_container(container, reason):
                killed += 1
        return killed

    def kill_all(self, reason: KillReason) -> int:
        return self.kill_some(len(self._container_of), reason)

    @property
    def running_containers(self) -> int:
        return len(self._running)
