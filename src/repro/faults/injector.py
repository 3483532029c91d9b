"""The fault injector: applies a :class:`FaultPlan` to a live cluster.

Arming the injector is the single switch that turns on the whole
failure-handling machinery: it starts the RM's heartbeat tracking and
liveness sweep (off by default, so fault-free runs keep a finite
calendar and bit-identical digests) and schedules one callback per
planned fault.

Faults act through the same surfaces real hardware does:

* a crash freezes the node's CPU/disk links and silences its
  heartbeats -- detection happens at the RM after the liveness expiry,
  not instantaneously;
* a container kill preempts through the node manager, exactly like a
  scheduler preemption would;
* a degradation rescales link capacities mid-flight, so running tasks
  slow down rather than restart (and heal at ``recover_time`` when the
  plan says so);
* network faults act on ``cluster.network``: ``link_degrade`` rescales
  a NIC, ``rack_partition`` stalls an uplink for a window, and
  ``link_flaky`` opens a per-fetch failure window drawn from the
  dedicated fetch RNG stream.  Any network kind in the plan arms
  :class:`~repro.faults.network_state.NetworkFaultState` on the
  network, which switches reducers onto the per-fetch recovery path;
* elastic churn (``node_decommission`` / ``node_join`` /
  ``spot_preempt``) goes through an
  :class:`~repro.faults.elastic.ElasticCluster` manager and the
  control-plane kinds through a
  :class:`~repro.faults.control.ControlPlaneState`.
  :meth:`FaultInjector.start` is the one place either is built, and
  only when the plan contains one of its kinds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import CONTROL_FAULT_KINDS, Fault, FaultPlan
from repro.telemetry.events import FaultInjected
from repro.yarn.node_manager import KillReason, NodeManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Cluster
    from repro.faults.control import ControlPlaneState
    from repro.faults.elastic import ElasticCluster
    from repro.monitor.central_monitor import CentralMonitor
    from repro.monitor.slave_monitor import SlaveMonitor
    from repro.sim.engine import Simulator
    from repro.yarn.resource_manager import ResourceManager


class FaultInjector:
    """Schedules and applies the faults of one plan."""

    def __init__(
        self,
        sim: "Simulator",
        cluster: "Cluster",
        node_managers: Dict[int, NodeManager],
        rm: "ResourceManager",
        plan: FaultPlan,
        fetch_rng: Optional[np.random.Generator] = None,
        monitor: Optional["CentralMonitor"] = None,
        slave_monitor: Optional["SlaveMonitor"] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.node_managers = node_managers
        self.rm = rm
        self.plan = plan
        self.fetch_rng = fetch_rng
        #: The harness's monitors, wired into the managers :meth:`start`
        #: builds: joined nodes get sampled, control faults black out.
        self.monitor = monitor
        self.slave_monitor = slave_monitor
        #: Built by :meth:`start` when the plan has an elastic (resp. a
        #: control) kind; ``None`` otherwise.
        self.elastic: Optional["ElasticCluster"] = None
        self.control: Optional["ControlPlaneState"] = None
        #: ``(time, description)`` log of faults actually applied.
        self.applied: List[Tuple[float, str]] = []
        #: Planned faults skipped because their target was already dead.
        self.skipped: List[Tuple[float, str]] = []
        self._started = False
        self._network_mode = False

    def start(self) -> None:
        """Arm failure detection and schedule every planned fault."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        if not self.plan.faults:
            return
        if self.plan.has_network_faults:
            # Arming the gray-failure state flips reducers onto the
            # per-fetch recovery path; legacy plans never reach here,
            # so their digests are untouched.
            from repro.faults.network_state import NetworkFaultState

            rng = self.fetch_rng if self.fetch_rng is not None else np.random.default_rng(0)
            self.cluster.network.faults = NetworkFaultState(rng)
            self._network_mode = True
        if self.plan.has_elastic_faults:
            from repro.faults.elastic import ElasticCluster

            self.elastic = ElasticCluster(
                self.sim, self.cluster, self.node_managers, self.rm,
                slave_monitor=self.slave_monitor,
            )
        if self.plan.has_control_faults:
            from repro.faults.control import ControlPlaneState

            self.control = ControlPlaneState(self.sim, monitor=self.monitor)
        ordered = [self.node_managers[nid] for nid in sorted(self.node_managers)]
        self.rm.start_failure_detection(ordered)
        for fault in self.plan.faults:
            self.sim.call_at(fault.time, lambda f=fault: self._apply(f))

    def _emit(self, fault: Fault, applied: bool, detail: str) -> None:
        tel = self.sim.telemetry
        if tel is not None and tel.wants("fault"):
            tel.emit(
                FaultInjected(
                    time=self.sim.now,
                    fault_kind=fault.kind,
                    node_id=fault.node_id,
                    applied=applied,
                    detail=detail,
                )
            )
            if applied:
                tel.increment("faults.applied")

    def _applied(self, fault: Fault, detail: str) -> None:
        self.applied.append((self.sim.now, detail))
        self._emit(fault, True, detail)

    def _apply(self, fault: Fault) -> None:
        if fault.kind == "node_join":
            # The joining node does not exist yet, so this branch must
            # run before any node/NM lookup; node_id names the anchor
            # whose rack the newcomer enters.
            node = self.elastic.join(fault.node_id)
            self._applied(fault, f"{fault.describe()} -> node {node.node_id}")
            return
        if fault.kind in CONTROL_FAULT_KINDS:
            # Control-plane faults hit the tuner/monitor sidecar, not a
            # cluster node, so they too dispatch before the node lookup
            # (stats_gap carries a node_id but only as a label).
            self._applied(fault, self.control.apply(fault))
            return
        node = self.cluster.node(fault.node_id)
        nm = self.node_managers[fault.node_id]
        network = self.cluster.network
        if fault.kind == "node_crash":
            if not node.alive:
                self.skipped.append((self.sim.now, fault.describe()))
                self._emit(fault, False, fault.describe())
                return
            node.fail()
            if self._network_mode:
                # In network mode a dead node's NIC stalls too, so
                # in-flight fetches from it time out instead of
                # completing against a corpse.
                network.freeze_node_nic(fault.node_id)
            self._applied(fault, fault.describe())
            return
        if not node.alive:
            # The target died (or left) before this fault's time arrived.
            self.skipped.append((self.sim.now, fault.describe()))
            self._emit(fault, False, fault.describe())
            return
        if fault.kind == "degrade":
            node.degrade(cpu_factor=fault.cpu_factor, disk_factor=fault.disk_factor)
            if fault.recover_time > 0:
                # Node.restore() no-ops on a dead node, so a crash that
                # lands in between stays a crash.
                self.sim.call_at(
                    self.sim.now + fault.recover_time, lambda n=node: n.restore()
                )
            self._applied(fault, fault.describe())
        elif fault.kind == "link_degrade":
            network.scale_node_nic(fault.node_id, fault.net_factor)
            if fault.recover_time > 0:
                # restore_node_nic() no-ops once the NIC froze (crash).
                self.sim.call_at(
                    self.sim.now + fault.recover_time,
                    lambda nid=fault.node_id: network.restore_node_nic(nid),
                )
            self._applied(fault, fault.describe())
        elif fault.kind == "link_flaky":
            network.faults.add_flaky_window(
                fault.node_id,
                self.sim.now,
                self.sim.now + fault.duration,
                fault.fail_prob,
            )
            self._applied(fault, fault.describe())
        elif fault.kind == "rack_partition":
            rack = node.rack
            network.partition_rack(rack)
            self.sim.call_at(
                self.sim.now + fault.duration, lambda r=rack: network.heal_rack(r)
            )
            self._applied(fault, fault.describe())
        elif fault.kind == "node_decommission":
            if self.elastic.decommission(fault.node_id):
                self._applied(fault, fault.describe())
            else:
                self.skipped.append((self.sim.now, fault.describe()))
                self._emit(fault, False, fault.describe())
        elif fault.kind == "spot_preempt":
            if self.elastic.preempt_notice(fault.node_id, fault.duration):
                self._applied(fault, fault.describe())
            else:
                self.skipped.append((self.sim.now, fault.describe()))
                self._emit(fault, False, fault.describe())
        else:  # container_kill
            killed = nm.kill_some(
                fault.count,
                KillReason("preempted", f"injected container kill on {node.hostname}"),
            )
            self._applied(fault, f"{fault.describe()} -> {killed} killed")
