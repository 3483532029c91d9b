"""The central monitor: aggregates task and node statistics.

The slave monitors hand each tick's per-node samples here in one call;
app masters push :class:`TaskStats` on task completion.  The tuner does
not read the monitor: it takes each attempt's :class:`TaskStats`
straight from the app master and quarantines fetch-inflated samples
itself.  Reports, benchmarks and tests read the aggregates kept here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.monitor.statistics import NodeRow, NodeSamples, TaskStats
from repro.telemetry.events import TaskStatsRecorded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import TelemetryBus
    from repro.telemetry.events import TelemetryEvent


class CentralMonitor:
    """Aggregation point for all runtime statistics.

    Node samples arrive only by direct call: a slave monitor hands each
    tick's rows to :meth:`ingest`.  Node departures arrive through
    :meth:`on_capacity_change`.  Task statistics arrive from the
    telemetry bus, on the ``stats`` category alone, or by direct calls
    to :meth:`on_task_stats`.  The monitor is no ``node`` subscriber, so
    a run nobody watches builds no ``NodeSampled`` event.

    :attr:`node_samples` folds each ingested
    :data:`~repro.monitor.statistics.NodeRow` into its node's running
    CPU and memory means (:class:`NodeSamples`) and keeps nothing per
    sample, so reading the means costs one step per node.  Each node's
    means run from time 0 to its departure; departures must therefore
    arrive in time order with the samples, and one reported after a
    later sample of its node was folded raises :class:`ValueError`.
    """

    def __init__(self, bus: Optional["TelemetryBus"] = None) -> None:
        self.task_stats: List[TaskStats] = []
        #: Elastic membership: node_id -> time it left.  Fed by the
        #: elastic manager's departures so aggregation tracks the live
        #: set instead of averaging over ghosts.
        self.departed_nodes: Dict[int, float] = {}
        self.node_samples = NodeSamples(self.departed_nodes)
        #: Blackout windows ``(node_id-or-None, start, end)`` opened by
        #: injected monitor outages / stats gaps.  Node samples inside
        #: an applicable window are dropped on ingestion.
        self.gaps: List[Tuple[Optional[int], float, float]] = []
        if bus is not None:
            self.subscribe_to(bus)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def subscribe_to(self, bus: "TelemetryBus") -> None:
        """Consume the task statistics feed (``stats``) from *bus*."""
        bus.subscribe(self.on_event, categories=("stats",))

    def on_event(self, event: "TelemetryEvent") -> None:
        if isinstance(event, TaskStatsRecorded):
            self.on_task_stats(event.stats)

    def on_capacity_change(self, node_id: int, action: str, time: float) -> None:
        """Track departures so the utilization means follow the live set.

        A node's first departure counts.  It must not come after a later
        sample of the node was folded, which no fold can take back: such
        a report raises :class:`ValueError` and records nothing.
        """
        if action != "depart" or node_id in self.departed_nodes:
            return
        if self.node_samples.folded_after(node_id, time):
            raise ValueError(
                f"node {node_id} departed at {time!r}, after a later sample was folded"
            )
        self.departed_nodes[node_id] = time

    def on_task_stats(self, stats: TaskStats) -> None:
        self.task_stats.append(stats)

    def begin_gap(
        self, start: float, end: float, node_id: Optional[int] = None
    ) -> None:
        """Black out node-sample ingestion over ``[start, end]``.

        ``node_id=None`` means cluster-wide (a central-monitor outage);
        a specific id silences one slave monitor.  Task statistics keep
        flowing -- they arrive through the app masters' completion path,
        which buffers until the monitor answers -- but utilization
        samples inside the window are lost for good, so the means hold
        the last pre-window level across the gap.
        """
        self.gaps.append((node_id, start, end))

    def _in_gap(self, node_id: int, time: float) -> bool:
        return any(
            (gap_node is None or gap_node == node_id) and start <= time <= end
            for gap_node, start, end in self.gaps
        )

    def ingest(self, rows: Sequence[NodeRow]) -> None:
        """Fold a batch of node samples, each a :data:`NodeRow`.

        Rows inside a blackout window (:meth:`begin_gap`) are dropped;
        the rest are folded into :attr:`node_samples` in the given order.
        """
        if self.gaps:
            rows = [row for row in rows if not self._in_gap(row[0], row[1])]
        self.node_samples.extend(rows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def mean_cpu_utilization(self) -> float:
        return self.node_samples.means()[0]

    def mean_memory_utilization(self) -> float:
        return self.node_samples.means()[1]
