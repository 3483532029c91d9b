"""Elastic cluster membership: decommission, join, and spot preemption.

The :class:`ElasticCluster` manager is the orchestration layer behind
the three churn fault kinds.  It owns the lifecycle choreography the
individual components only expose surfaces for:

* ``node_decommission`` -- graceful drain.  The node turns
  ``DRAINING``, so the NodeManager refuses launches and the scheduler
  places nothing on it; running tasks finish undisturbed, and when the
  last one settles the node deregisters from the RM, turns
  ``DEPARTED`` (dropping out of monitor sampling, and recorded by the
  central monitor, if any), and its links freeze.  Nothing is ever
  killed.
* ``node_join`` -- a new node is built with the next sequential id,
  attached to an existing rack's fabric, given a NodeManager (heart-
  beating immediately when failure detection is armed), sampled by the
  slave monitor (if any) from the instant it joins, and entered into
  scheduling; pending requests can land on it one dispatch beat later.
* ``spot_preempt`` -- a preemption *notice* drains the node like a
  decommission, but a hard kill lands after the grace window.  Every
  registered application master is notified at notice time so it can
  proactively migrate the doomed attempts (see
  :meth:`~repro.yarn.app_master.MRAppMaster.on_preempt_notice`); what
  is still running at the deadline dies with a ``preempted`` kill and
  the node is reclaimed.

Every membership change fires the ``capacity_listeners`` (the online
tuner registers here to add capacity quarantine windows) and emits typed
telemetry (``node_decommission`` / ``node_join`` / ``preempt_notice``
/ ``preempt_kill`` on the ``yarn`` category, ``capacity_change`` on
``node``).  None of this machinery exists unless a plan contains an
elastic kind, so fault-free and legacy-fault digests are untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.cluster.node import NodeState
from repro.telemetry.events import (
    CapacityChange,
    NodeDecommission,
    NodeJoin,
    PreemptKill,
    PreemptNotice,
)
from repro.yarn.node_manager import KillReason, NodeManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.cluster.topology import Cluster
    from repro.monitor.central_monitor import CentralMonitor
    from repro.monitor.slave_monitor import SlaveMonitor
    from repro.sim.engine import Simulator
    from repro.yarn.resource_manager import ResourceManager


class ElasticCluster:
    """Choreographs membership changes on a live cluster."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "Cluster",
        node_managers: Dict[int, NodeManager],
        rm: "ResourceManager",
        monitor: Optional["CentralMonitor"] = None,
        slave_monitor: Optional["SlaveMonitor"] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.node_managers = node_managers
        self.rm = rm
        self.monitor = monitor
        self.slave_monitor = slave_monitor
        #: Application masters to notify of preemption notices.
        self.apps: List[object] = []
        #: Called with the sim time on every capacity change (join or
        #: departure); the tuner hooks in here.
        self.capacity_listeners: List[Callable[[float], None]] = []
        #: Node ids that joined mid-run, in join order.
        self.joined: List[int] = []
        #: ``(node_id, why)`` for nodes that left, in departure order.
        self.departed: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_app(self, app: object) -> None:
        """Subscribe an application master to preemption notices."""
        if app not in self.apps:
            self.apps.append(app)

    @property
    def migrations(self) -> int:
        """Attempts proactively migrated off preemption-noticed nodes."""
        return sum(int(getattr(app, "preempt_migrations", 0)) for app in self.apps)

    # ------------------------------------------------------------------
    # Decommission (graceful drain)
    # ------------------------------------------------------------------
    def decommission(self, node_id: int) -> bool:
        """Start a graceful drain of *node_id*; False if it is moot."""
        node = self.cluster.node(node_id)
        nm = self.node_managers[node_id]
        if not node.alive or node.state is not NodeState.ACTIVE:
            return False
        node.state = NodeState.DRAINING
        tel = self.sim.telemetry
        if tel is not None and tel.wants("yarn"):
            tel.emit(
                NodeDecommission(
                    time=self.sim.now,
                    node_id=node_id,
                    running_containers=nm.running_containers,
                )
            )
            tel.increment("elastic.decommissions")
        if nm.running_containers == 0:
            self._complete_departure(node_id, "decommission")
        else:
            # Depart as soon as the last running container settles.  The
            # observer stays registered after departure; it can never
            # fire again because launches are refused from here on.
            def _on_finish(_container: object) -> None:
                if node.state is not NodeState.DEPARTED and nm.running_containers == 0:
                    self._complete_departure(node_id, "decommission")

            nm.on_container_finished.append(_on_finish)
        return True

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def join(self, anchor_node_id: int) -> "Node":
        """Register a brand-new node into the anchor node's rack."""
        rack = self.cluster.node(anchor_node_id).rack
        node = self.cluster.add_node(rack)
        nm = NodeManager(self.sim, node, network=self.cluster.network)
        self.node_managers[node.node_id] = nm
        self.rm.register_node_manager(nm)
        if self.slave_monitor is not None:
            self.slave_monitor.start([nm])
        self.joined.append(node.node_id)
        tel = self.sim.telemetry
        if tel is not None and tel.wants("yarn"):
            tel.emit(NodeJoin(time=self.sim.now, node_id=node.node_id, rack=rack))
            tel.increment("elastic.joins")
        self._emit_capacity_change(node.node_id, "join")
        return node

    # ------------------------------------------------------------------
    # Spot preemption (notice, grace window, hard kill)
    # ------------------------------------------------------------------
    def preempt_notice(self, node_id: int, grace: float) -> bool:
        """Deliver a preemption notice; the kill lands *grace* s later.

        A node that is dead or already draining (a decommission, or an
        earlier notice) ignores the notice entirely.
        """
        node = self.cluster.node(node_id)
        nm = self.node_managers[node_id]
        if not node.alive or node.state is not NodeState.ACTIVE:
            return False
        node.state = NodeState.DRAINING
        deadline = self.sim.now + grace
        tel = self.sim.telemetry
        if tel is not None and tel.wants("yarn"):
            tel.emit(
                PreemptNotice(
                    time=self.sim.now,
                    node_id=node_id,
                    deadline=deadline,
                    running_containers=nm.running_containers,
                )
            )
            tel.increment("elastic.preempt_notices")
        # The AMs get the whole grace window to migrate doomed attempts.
        for app in list(self.apps):
            notify = getattr(app, "on_preempt_notice", None)
            if notify is not None:
                notify(node_id, deadline)
        self.sim.call_at(deadline, lambda: self._preempt_kill(node_id))
        return True

    def _preempt_kill(self, node_id: int) -> None:
        node = self.cluster.node(node_id)
        nm = self.node_managers[node_id]
        if not node.alive:
            # Crashed during the grace window; the reclaim is moot.
            return
        killed = nm.kill_all(
            KillReason("preempted", f"spot preemption reclaimed {node.hostname}")
        )
        tel = self.sim.telemetry
        if tel is not None and tel.wants("yarn"):
            tel.emit(
                PreemptKill(time=self.sim.now, node_id=node_id, killed_containers=killed)
            )
            tel.increment("elastic.preempt_kills")
        self._complete_departure(node_id, "spot_preempt")

    # ------------------------------------------------------------------
    # Departure plumbing
    # ------------------------------------------------------------------
    def _complete_departure(self, node_id: int, why: str) -> None:
        """Take a drained (or reclaimed) node out of the cluster."""
        node = self.cluster.node(node_id)
        self.rm.deregister_node(node_id)
        node.depart()
        if self.cluster.network.faults is not None:
            # In network mode a departed node's NIC stalls like a
            # crashed one's, so in-flight fetches from it time out and
            # the recovery path takes over.
            self.cluster.network.freeze_node_nic(node_id)
        self.departed.append((node_id, why))
        if self.monitor is not None:
            self.monitor.on_capacity_change(node_id, "depart", self.sim.now)
        self._emit_capacity_change(node_id, "depart")

    def _emit_capacity_change(self, node_id: int, action: str) -> None:
        tel = self.sim.telemetry
        if tel is not None:
            if tel.wants("node"):
                tel.emit(
                    CapacityChange(
                        time=self.sim.now,
                        node_id=node_id,
                        action=action,
                        live_nodes=len(self.cluster.live_nodes),
                        live_yarn_memory_bytes=float(self.cluster.live_yarn_memory),
                    )
                )
            tel.increment("elastic.capacity_changes")
        for listener in list(self.capacity_listeners):
            listener(self.sim.now)


__all__ = ["ElasticCluster"]
