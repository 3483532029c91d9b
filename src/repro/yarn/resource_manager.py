"""The resource manager: allocation requests in, containers out.

Applications register, submit :class:`ContainerRequest` objects, and
receive :class:`Container` grants through events.  Every enqueue and
every release triggers a dispatch pass that drains the scheduler while
assignments remain possible; grants are delivered after a small
heartbeat latency so allocation never reenters the caller.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence

from repro.cluster.container import Container, ContainerState
from repro.cluster.node import NodeState
from repro.cluster.topology import Cluster
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event, reraise_failure
from repro.telemetry.events import ContainerGranted, ContainerReleased, NodeLost
from repro.yarn.node_manager import KillReason, NodeManager
from repro.yarn.records import ContainerRequest
from repro.yarn.scheduler import SchedulerBase

#: Allocation heartbeat latency (NM heartbeats are 1 s in YARN; grants
#: land on the next beat on average).
ALLOCATION_LATENCY = 0.5

#: How often a live NodeManager reports to the resource manager, and
#: how often the RM sweeps for expired nodes.
HEARTBEAT_INTERVAL = 3.0

#: A node whose last heartbeat is older than this is declared lost
#: (Hadoop's ``nm.liveness-monitor.expiry-interval`` scaled down to the
#: simulator's heartbeat cadence).
LIVENESS_EXPIRY = 12.0

#: Members that heartbeat while their node is alive.
_BEATING = (NodeState.ACTIVE, NodeState.DRAINING)


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
        fault fires.  One timer beats for every given node and then
        sweeps.
        """
        if self._failure_detection:
            return
        self._failure_detection = True
        self._track(list(node_managers), sweep=True, name="rm-liveness")

    def register_node_manager(self, nm: NodeManager) -> None:
        """Bring a freshly joined node into RM bookkeeping.

        With failure detection armed the newcomer beats on its own timer
        from the instant it joins; either way a dispatch pass is
        scheduled so pending requests can land on the new capacity.
        """
        if self._failure_detection and nm.node.node_id not in self._node_managers:
            self._track([nm], sweep=False, name=f"{nm.node.hostname}-hb")
        self._schedule_dispatch()

    def deregister_node(self, node_id: int) -> None:
        """Stop tracking a node that left through the elastic path.

        Heartbeat tracking is dropped *before* the sweep can misread the
        silence as a crash.  Unlike :meth:`_declare_node_lost` nothing
        is killed here -- graceful departures finish (or migrate) their
        work first.
        """
        self._node_managers.pop(node_id, None)
        self._last_heartbeat.pop(node_id, None)
        self._schedule_dispatch()

    def _track(self, nms: List[NodeManager], sweep: bool, name: str) -> None:
        now = self.sim.now
        for nm in nms:
            self._node_managers[nm.node.node_id] = nm
            self._last_heartbeat[nm.node.node_id] = now
        timer = self.sim.process(self._heartbeats(nms, sweep), name=name)
        timer.add_callback(reraise_failure)

    def _heartbeats(
        self, nms: List[NodeManager], sweep: bool
    ) -> Generator[Event, object, None]:
        """Every :data:`HEARTBEAT_INTERVAL`, record a heartbeat for each
        node of *nms* that still beats, then (with *sweep*) expire the
        silent ones.

        A crashed NodeManager simply goes silent, and the sweep notices
        through expiry.  A timer without the sweep ends once none of its
        nodes beats.
        """
        while True:
            yield self.sim.timeout(HEARTBEAT_INTERVAL)
            now = self.sim.now
            beating = False
            for nm in nms:
                if nm.node.alive and nm.node.state in _BEATING:
                    self._last_heartbeat[nm.node.node_id] = now
                    beating = True
            if sweep:
                deadline = now - LIVENESS_EXPIRY
                for node_id in sorted(self._last_heartbeat):
                    if (
                        self._last_heartbeat[node_id] < deadline
                        and self._node_managers[node_id].node.state is not NodeState.LOST
                    ):
                        self._declare_node_lost(node_id)
            elif not beating:
                return

    def _declare_node_lost(self, node_id: int) -> None:
        """Expire a silent node: no more placements, kill its containers."""
        nm = self._node_managers[node_id]
        nm.node.state = NodeState.LOST
        tel = self.sim.telemetry
        if tel is not None and tel.wants("yarn"):
            tel.emit(NodeLost(time=self.sim.now, node_id=node_id))
        nm.kill_all(KillReason("node_lost", f"{nm.node.hostname} heartbeat expired"))
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
