"""A cluster node: CPU, memory pool, and local disk.

CPU is modelled as a :class:`~repro.sim.resources.FlowScheduler` with a
single link whose capacity is ``physical_cores`` core-seconds per
second; a compute flow's per-flow cap encodes how many cores the task
may use (its container's vcore grant converted to physical cores,
further capped by the task's inherent parallelism).  The disk is a
second scheduler shared by reads and writes.

Memory is bookkeeping only: containers reserve memory from the node's
pool; the pool never oversubscribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.resources import FlowScheduler, Link

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.container import Container

MB = 1024 * 1024
GB = 1024 * MB

#: Capacity a crashed node's links are frozen at.  It must stay positive
#: (the flow scheduler rejects zero-capacity links), but is small enough
#: that any in-flight work effectively never finishes: the failure is
#: noticed through heartbeat expiry, not through task completion.
FROZEN_CAPACITY = 1e-9


class NodeState(Enum):
    """A node's cluster membership: whether it may take new work.

    ``ACTIVE`` nodes take new containers.  A ``DRAINING`` node (graceful
    decommission or spot-preemption notice) finishes what it runs but
    takes nothing new.  The resource manager declares a node ``LOST``
    when its heartbeats expire; a node that left through the elastic
    path is ``DEPARTED``.  A crashed node stays ``ACTIVE`` until the
    expiry: ``Node.alive`` is the physical fact, this is what the
    cluster knows.
    """

    ACTIVE = "active"
    DRAINING = "draining"
    LOST = "lost"
    DEPARTED = "departed"


@dataclass(frozen=True)
class NodeResources:
    """Static hardware description of a node."""

    physical_cores: int = 8
    #: Per-core compute throughput in "work units"/s.  Workloads express
    #: their compute demand in the same units, so only ratios matter.
    core_speed: float = 1.0
    memory_bytes: int = 8 * GB
    disk_read_bw: float = 110 * MB  # sequential read, bytes/s
    disk_write_bw: float = 90 * MB  # sequential write, bytes/s
    nic_bw: float = 117 * MB  # 1 Gbps full duplex, bytes/s each way

    #: YARN-visible resources (the paper: 28 vcores / 6 GB per slave for
    #: containers; the rest is reserved for DataNode + NodeManager).
    yarn_vcores: int = 28
    yarn_memory_bytes: int = 6 * GB

    @property
    def cores_per_vcore(self) -> float:
        """Physical-core share represented by one YARN vcore."""
        # The paper's nodes expose 32 vcores total (28 for containers + 4
        # reserved) over 8 physical cores => 1 vcore = 1/4 core.
        return self.physical_cores / 32.0


class Node:
    """A simulated slave node hosting containers."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        rack: int,
        resources: NodeResources,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.rack = rack
        self.resources = resources
        self.hostname = f"node{node_id:02d}"

        self.cpu_link = Link(
            f"{self.hostname}.cpu", resources.physical_cores * resources.core_speed
        )
        self.cpu = FlowScheduler(sim, name=f"{self.hostname}.cpu")
        self.disk_read_link = Link(f"{self.hostname}.disk.rd", resources.disk_read_bw)
        self.disk_write_link = Link(f"{self.hostname}.disk.wr", resources.disk_write_bw)
        # One scheduler for the spindle: reads and writes contend, but the
        # two links let us keep asymmetric sequential bandwidths.
        self.disk = FlowScheduler(sim, name=f"{self.hostname}.disk")

        # Memory pool for YARN containers.
        self.yarn_memory_total = resources.yarn_memory_bytes
        self.yarn_memory_used = 0
        self.yarn_vcores_total = resources.yarn_vcores
        self.yarn_vcores_used = 0

        self.containers: Dict[int, "Container"] = {}

        #: Physical liveness (driven by the fault injector).
        self.alive = True
        #: Membership, the one record every layer reads.
        self.state = NodeState.ACTIVE
        self.cpu_slowdown = 1.0
        self.disk_slowdown = 1.0
        self._base_cpu_capacity = self.cpu_link.capacity
        self._base_disk_read_capacity = self.disk_read_link.capacity
        self._base_disk_write_capacity = self.disk_write_link.capacity

    # ------------------------------------------------------------------
    # Fault model (crash / degrade / recover)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the node: freeze its links so in-flight work stalls.

        The node is *not* cleaned up here -- detection happens through
        heartbeat expiry at the resource manager, exactly as on a real
        cluster where a dead NodeManager simply goes silent.
        """
        if not self.alive:
            return
        self.alive = False
        self.cpu.set_link_capacity(self.cpu_link, FROZEN_CAPACITY)
        self.disk.set_link_capacity(self.disk_read_link, FROZEN_CAPACITY)
        self.disk.set_link_capacity(self.disk_write_link, FROZEN_CAPACITY)

    def depart(self) -> None:
        """Remove the node from service through the elastic path.

        Same frozen-links end state as :meth:`fail` -- the machine is
        gone either way -- but ``DEPARTED`` rather than ``LOST``, so
        diagnostics can tell a reclaimed node from a crashed one.  The
        node object stays in ``Cluster.nodes`` (ids double as indices).
        """
        self.state = NodeState.DEPARTED
        self.fail()

    def degrade(self, cpu_factor: float = 1.0, disk_factor: float = 1.0) -> None:
        """Slow the node down: remaining work proceeds at a fraction of
        the hardware's base throughput (a straggler, not a crash)."""
        if not (0.0 < cpu_factor <= 1.0) or not (0.0 < disk_factor <= 1.0):
            raise SimulationError(
                f"slowdown factors must be in (0, 1], got {cpu_factor}/{disk_factor}"
            )
        if not self.alive:
            return
        self.cpu_slowdown = cpu_factor
        self.disk_slowdown = disk_factor
        self._apply_capacities()

    def restore(self) -> None:
        """Recover a degraded node to full speed (crashes are permanent)."""
        if not self.alive:
            return
        self.cpu_slowdown = 1.0
        self.disk_slowdown = 1.0
        self._apply_capacities()

    def _apply_capacities(self) -> None:
        self.cpu.set_link_capacity(
            self.cpu_link, self._base_cpu_capacity * self.cpu_slowdown
        )
        self.disk.set_link_capacity(
            self.disk_read_link, self._base_disk_read_capacity * self.disk_slowdown
        )
        self.disk.set_link_capacity(
            self.disk_write_link, self._base_disk_write_capacity * self.disk_slowdown
        )

    def cancel_task_flows(self, prefix: str) -> int:
        """Drop this node's CPU and disk flows labelled with *prefix*
        (a killed task's compute/spill work stops consuming bandwidth)."""
        return self.cpu.cancel_prefix(prefix) + self.disk.cancel_prefix(prefix)

    # ------------------------------------------------------------------
    # Resource accounting (used by the YARN scheduler)
    # ------------------------------------------------------------------
    def can_fit(self, memory_bytes: int, vcores: int) -> bool:
        return (
            self.yarn_memory_used + memory_bytes <= self.yarn_memory_total
            and self.yarn_vcores_used + vcores <= self.yarn_vcores_total
        )

    def reserve(self, memory_bytes: int, vcores: int) -> None:
        if not self.can_fit(memory_bytes, vcores):
            raise SimulationError(
                f"{self.hostname}: cannot reserve {memory_bytes}B/{vcores}vc "
                f"(used {self.yarn_memory_used}B/{self.yarn_vcores_used}vc of "
                f"{self.yarn_memory_total}B/{self.yarn_vcores_total}vc)"
            )
        self.yarn_memory_used += memory_bytes
        self.yarn_vcores_used += vcores

    def release(self, memory_bytes: int, vcores: int) -> None:
        self.yarn_memory_used -= memory_bytes
        self.yarn_vcores_used -= vcores
        if self.yarn_memory_used < 0 or self.yarn_vcores_used < 0:
            raise SimulationError(f"{self.hostname}: resource over-release")

    @property
    def memory_headroom(self) -> int:
        return self.yarn_memory_total - self.yarn_memory_used

    @property
    def vcore_headroom(self) -> int:
        return self.yarn_vcores_total - self.yarn_vcores_used

    # ------------------------------------------------------------------
    # Hardware operations (called by task models)
    # ------------------------------------------------------------------
    def compute(self, work: float, max_cores: float, label: str = "") -> Event:
        """Run *work* units of compute using up to *max_cores* cores."""
        cap = max_cores * self.resources.core_speed
        return self.cpu.transfer([self.cpu_link], work, cap=cap, label=label)

    def disk_read(self, nbytes: float, label: str = "") -> Event:
        return self.disk.transfer([self.disk_read_link], nbytes, label=label)

    def disk_write(self, nbytes: float, label: str = "") -> Event:
        return self.disk.transfer([self.disk_write_link], nbytes, label=label)

    # ------------------------------------------------------------------
    # Monitoring hooks
    # ------------------------------------------------------------------
    def cpu_utilization(self) -> float:
        """Fraction of physical CPU capacity in use right now."""
        return self.cpu.utilization(self.cpu_link)

    def memory_utilization(self) -> float:
        """Fraction of the YARN memory pool reserved by containers."""
        if self.yarn_memory_total == 0:
            return 0.0
        return self.yarn_memory_used / self.yarn_memory_total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Node {self.hostname} rack={self.rack}>"
