"""Container scheduling policies.

The base class holds the request book-keeping -- including the
hash-map-of-sizes structure the paper adds so that *different-sized*
container requests coexist (Section 4) -- and the placement logic
(data-local, then rack-local, then least-loaded).  Policies differ only
in which pending request gets the next available slot.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.node import Node, NodeState
from repro.cluster.topology import Cluster
from repro.yarn.records import ContainerRequest, Resource


class SchedulerBase:
    """Request queue + placement; subclasses choose the ordering."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._pending: List[ContainerRequest] = []
        #: The paper's "hash map data structure to keep track of the
        #: different-sized containers requested" -- resource -> count.
        self.requested_sizes: Dict[Resource, int] = defaultdict(int)
        self._app_weight: Dict[str, float] = {}
        #: app -> currently allocated memory bytes (fair-share bookkeeping).
        self.app_memory_usage: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # App lifecycle
    # ------------------------------------------------------------------
    def add_app(self, app_id: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError("app weight must be positive")
        self._app_weight[app_id] = weight

    def set_app_weight(self, app_id: str, weight: float) -> bool:
        """Re-weight a live app's fair share mid-run.

        This is the service-level preemption mechanism: instead of
        killing containers, a job being preempted is down-weighted so
        every future allocation favors the starved tenant, and the
        victim finishes on the containers it already holds (Hadoop's
        "preemption without kill").  Returns False when the app has
        already completed (re-weighting then is a harmless no-op race).
        """
        if weight <= 0:
            raise ValueError("app weight must be positive")
        if app_id not in self._app_weight:
            return False
        self._app_weight[app_id] = weight
        return True

    def remove_app(self, app_id: str) -> None:
        self._app_weight.pop(app_id, None)
        self.app_memory_usage.pop(app_id, None)
        removed = [r for r in self._pending if r.app_id == app_id]
        for r in removed:
            self.requested_sizes[r.resource] -= 1
        self._pending = [r for r in self._pending if r.app_id != app_id]

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def enqueue(self, request: ContainerRequest) -> None:
        if request.app_id not in self._app_weight:
            raise KeyError(f"unknown app {request.app_id!r}")
        self._pending.append(request)
        self.requested_sizes[request.resource] += 1

    def cancel(self, request: ContainerRequest) -> bool:
        try:
            self._pending.remove(request)
        except ValueError:
            return False
        self.requested_sizes[request.resource] -= 1
        return True

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Accounting (driven by the resource manager)
    # ------------------------------------------------------------------
    def on_allocated(self, app_id: str, resource: Resource) -> None:
        self.app_memory_usage[app_id] += resource.memory_bytes

    def on_released(self, app_id: str, resource: Resource) -> None:
        self.app_memory_usage[app_id] -= resource.memory_bytes
        if self.app_memory_usage[app_id] < 0:
            raise RuntimeError(f"negative usage for app {app_id!r}")

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def schedulable_nodes(self) -> List[Node]:
        """Nodes eligible for new placements: the ``ACTIVE`` ones."""
        return [n for n in self.cluster.nodes if n.state is NodeState.ACTIVE]

    def find_node(self, request: ContainerRequest) -> Optional[Node]:
        """Pick a node for *request*: data-local > rack-local > emptiest.

        Only ``ACTIVE`` nodes are used.  A request's blacklist is
        honoured unless it covers every remaining schedulable node, in
        which case it is ignored entirely (Hadoop's AMs likewise release
        their blacklist rather than deadlock the job) -- the live set
        here already excludes lost *and* draining nodes, so blacklisting
        can never deadlock scheduling even after churn shrinks the
        cluster.
        """
        res = request.resource
        live = self.schedulable_nodes()
        blocked = set(request.blacklisted_nodes)
        if blocked and any(n.node_id not in blocked for n in live):
            live = [n for n in live if n.node_id not in blocked]
        fits = [n for n in live if n.can_fit(res.memory_bytes, res.vcores)]
        if not fits:
            return None
        if request.preferred_nodes:
            preferred = set(request.preferred_nodes)
            local = [n for n in fits if n.node_id in preferred]
            if local:
                return min(local, key=lambda n: n.yarn_memory_used)
            racks = {
                self.cluster.node(nid).rack
                for nid in preferred
                if nid < len(self.cluster.nodes)
            }
            rack_local = [n for n in fits if n.rack in racks]
            if rack_local:
                return min(rack_local, key=lambda n: n.yarn_memory_used)
        return min(fits, key=lambda n: n.yarn_memory_used)

    # ------------------------------------------------------------------
    # Policy hook
    # ------------------------------------------------------------------
    def assign_once(self) -> Optional[Tuple[ContainerRequest, Node]]:
        """Pick one (request, node) assignment, or None if nothing fits."""
        raise NotImplementedError

    def _first_fit(
        self, requests: Iterable[ContainerRequest]
    ) -> Optional[Tuple[ContainerRequest, Node]]:
        """Place the first of *requests*, in policy order, that fits a node.

        Whether :meth:`find_node` finds a node depends only on the
        request's resource and blacklist, and nothing changes during a
        pass, so a shape that missed once is not probed again.
        """
        missed: Set[Tuple[Resource, Tuple[int, ...]]] = set()
        for request in requests:
            shape = (request.resource, request.blacklisted_nodes)
            if shape in missed:
                continue
            node = self.find_node(request)
            if node is not None:
                return self._take(request, node)
            missed.add(shape)
        return None

    def _take(self, request: ContainerRequest, node: Node) -> Tuple[ContainerRequest, Node]:
        self._pending.remove(request)
        self.requested_sizes[request.resource] -= 1
        return request, node


class FifoScheduler(SchedulerBase):
    """Priority-then-arrival order, as YARN's default queue behaves.

    Within a priority level requests are served in arrival order;
    requests that don't currently fit are skipped rather than blocking
    the queue (YARN heartbeats likewise skip unsatisfiable asks).
    """

    def assign_once(self) -> Optional[Tuple[ContainerRequest, Node]]:
        return self._first_fit(
            sorted(self._pending, key=lambda r: (r.priority, r.request_id))
        )
