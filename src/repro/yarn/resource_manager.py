"""The resource manager: allocation requests in, containers out.

Applications register, submit :class:`ContainerRequest` objects, and
receive :class:`Container` grants through events.  Every enqueue and
every release triggers a dispatch pass that drains the scheduler while
assignments remain possible; grants are delivered after a small
heartbeat latency so allocation never reenters the caller.
"""

from __future__ import annotations

from typing import Dict, Generator, Sequence

from repro.cluster.container import Container, ContainerState
from repro.cluster.topology import Cluster
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event
from repro.yarn.node_manager import KillReason, NodeManager
from repro.yarn.records import ContainerRequest
from repro.yarn.scheduler import SchedulerBase

#: Allocation heartbeat latency (NM heartbeats are 1 s in YARN; grants
#: land on the next beat on average).
ALLOCATION_LATENCY = 0.5

#: A node whose last heartbeat is older than this is declared lost
#: (Hadoop's ``nm.liveness-monitor.expiry-interval`` scaled down to the
#: simulator's heartbeat cadence).
LIVENESS_EXPIRY = 12.0

#: How often the RM sweeps for expired nodes.
LIVENESS_CHECK_INTERVAL = 3.0


class ResourceManager:
    """Cluster-wide resource arbitration."""

    def __init__(self, sim: Simulator, cluster: Cluster, scheduler: SchedulerBase) -> None:
        self.sim = sim
        self.cluster = cluster
        self.scheduler = scheduler
        self._grants: Dict[int, Event] = {}  # request_id -> grant event
        self._live_containers: Dict[int, Container] = {}
        self._dispatch_scheduled = False
        #: Diagnostics: total containers ever granted.
        self.containers_granted = 0
        #: Failure detection state (armed by :meth:`start_failure_detection`).
        self._node_managers: Dict[int, NodeManager] = {}
        self._last_heartbeat: Dict[int, float] = {}
        self._lost_nodes: Dict[int, float] = {}  # node_id -> time declared lost
        self._departed_nodes: Dict[int, float] = {}  # node_id -> departure time
        self._failure_detection = False

    # ------------------------------------------------------------------
    # Application lifecycle
    # ------------------------------------------------------------------
    def register_app(self, app_id: str, weight: float = 1.0) -> None:
        self.scheduler.add_app(app_id, weight)

    def unregister_app(self, app_id: str) -> None:
        self.scheduler.remove_app(app_id)

    def set_app_weight(self, app_id: str, weight: float) -> bool:
        """Re-weight a live app's fair share (service-level preemption)."""
        return self.scheduler.set_app_weight(app_id, weight)

    # ------------------------------------------------------------------
    # Node liveness
    # ------------------------------------------------------------------
    def start_failure_detection(self, node_managers: Sequence[NodeManager]) -> None:
        """Arm heartbeat tracking and the expiry sweep.

        Off by default: fault-free runs keep an empty calendar tail and
        bit-identical digests.  The fault injector arms this before any
        fault fires.
        """
        if self._failure_detection:
            return
        self._failure_detection = True
        for nm in node_managers:
            self._node_managers[nm.node.node_id] = nm
            self._last_heartbeat[nm.node.node_id] = self.sim.now
            nm.start_heartbeats(self)
        self.sim.process(self._liveness_sweep(), name="rm-liveness")

    def node_heartbeat(self, node_id: int) -> None:
        self._last_heartbeat[node_id] = self.sim.now

    def is_node_lost(self, node_id: int) -> bool:
        return node_id in self._lost_nodes or node_id in self._departed_nodes

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def register_node_manager(self, nm: NodeManager) -> None:
        """Bring a freshly joined node into RM bookkeeping.

        With failure detection armed the newcomer starts heartbeating
        immediately; either way a dispatch pass is scheduled so pending
        requests can land on the new capacity.
        """
        node_id = nm.node.node_id
        if self._failure_detection and node_id not in self._node_managers:
            self._node_managers[node_id] = nm
            self._last_heartbeat[node_id] = self.sim.now
            nm.start_heartbeats(self)
        self._schedule_dispatch()

    def deregister_node(self, node_id: int) -> None:
        """Retire a node that left through the elastic path.

        Heartbeat tracking is dropped *before* the liveness sweep can
        misread the silence as a crash, and the scheduler excludes the
        node from every future placement.  Unlike
        :meth:`_declare_node_lost` nothing is killed here -- graceful
        departures finish (or migrate) their work first.
        """
        self._node_managers.pop(node_id, None)
        self._last_heartbeat.pop(node_id, None)
        if node_id not in self._departed_nodes:
            self._departed_nodes[node_id] = self.sim.now
        self.scheduler.mark_node_lost(node_id)
        self._schedule_dispatch()

    def _liveness_sweep(self) -> Generator[Event, object, None]:
        while True:
            yield self.sim.timeout(LIVENESS_CHECK_INTERVAL)
            deadline = self.sim.now - LIVENESS_EXPIRY
            for node_id in sorted(self._last_heartbeat):
                if node_id in self._lost_nodes:
                    continue
                if self._last_heartbeat[node_id] < deadline:
                    self._declare_node_lost(node_id)

    def _declare_node_lost(self, node_id: int) -> None:
        """Expire a silent node: no more placements, kill its containers."""
        if node_id in self._lost_nodes:
            return
        self._lost_nodes[node_id] = self.sim.now
        tel = self.sim.telemetry
        if tel is not None and tel.wants("yarn"):
            from repro.telemetry.events import NodeLost

            tel.emit(NodeLost(time=self.sim.now, node_id=node_id))
        self.scheduler.mark_node_lost(node_id)
        nm = self._node_managers.get(node_id)
        if nm is not None:
            hostname = nm.node.hostname
            nm.decommission(KillReason("node_lost", f"{hostname} heartbeat expired"))
        self._schedule_dispatch()

    # ------------------------------------------------------------------
    # Allocation protocol
    # ------------------------------------------------------------------
    def allocate(self, request: ContainerRequest) -> Event:
        """Submit *request*; the returned event fires with a Container."""
        max_mem = max(n.yarn_memory_total for n in self.cluster.nodes)
        max_vc = max(n.yarn_vcores_total for n in self.cluster.nodes)
        if not request.resource.fits_in(max_mem, max_vc):
            raise SimulationError(
                f"{request!r} can never be satisfied: exceeds the largest node "
                f"({max_mem}B/{max_vc}vc)"
            )
        grant = self.sim.event()
        self._grants[request.request_id] = grant
        self.scheduler.enqueue(request)
        self._schedule_dispatch()
        return grant

    def cancel(self, request: ContainerRequest) -> bool:
        """Withdraw a request that has not been granted yet."""
        if self.scheduler.cancel(request):
            self._grants.pop(request.request_id, None)
            return True
        return False

    def release_container(self, container: Container) -> None:
        """Return a finished container's resources to the cluster."""
        if container.state is ContainerState.RELEASED:
            raise SimulationError(f"{container!r} released twice")
        container.state = ContainerState.RELEASED
        container.node.release(container.memory_bytes, container.vcores)
        container.node.containers.pop(container.container_id, None)
        self._live_containers.pop(container.container_id, None)
        tel = self.sim.telemetry
        if tel is not None and tel.wants("yarn"):
            from repro.telemetry.events import ContainerReleased

            tel.emit(
                ContainerReleased(
                    time=self.sim.now,
                    node_id=container.node.node_id,
                    container_id=container.container_id,
                )
            )
        self.scheduler.on_released(
            container.app_id,
            _resource_of(container),
        )
        self._schedule_dispatch()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _schedule_dispatch(self) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        ev = self.sim.timeout(ALLOCATION_LATENCY)
        ev.add_callback(lambda _e: self._dispatch())

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        while True:
            pick = self.scheduler.assign_once()
            if pick is None:
                return
            request, node = pick
            container = Container(
                node,
                request.resource.memory_bytes,
                request.resource.vcores,
                request.app_id,
                tag=request.tag,
            )
            node.reserve(container.memory_bytes, container.vcores)
            node.containers[container.container_id] = container
            self._live_containers[container.container_id] = container
            self.scheduler.on_allocated(request.app_id, request.resource)
            self.containers_granted += 1
            tel = self.sim.telemetry
            if tel is not None and tel.wants("yarn"):
                from repro.telemetry.events import ContainerGranted

                tel.emit(
                    ContainerGranted(
                        time=self.sim.now,
                        node_id=node.node_id,
                        container_id=container.container_id,
                        memory_bytes=float(container.memory_bytes),
                        cores=float(container.vcores),
                    )
                )
                tel.increment("yarn.containers_granted")
            grant = self._grants.pop(request.request_id, None)
            if grant is None:
                raise SimulationError(f"no grant event for {request!r}")
            grant.succeed(container)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_container_count(self) -> int:
        return len(self._live_containers)

    def app_memory_usage(self, app_id: str) -> int:
        return self.scheduler.app_memory_usage.get(app_id, 0)

    def cluster_memory_utilization(self) -> float:
        total = self.cluster.total_yarn_memory
        used = sum(n.yarn_memory_used for n in self.cluster.nodes)
        return used / total if total else 0.0


def _resource_of(container: Container):
    from repro.yarn.records import Resource

    return Resource(container.memory_bytes, container.vcores)
