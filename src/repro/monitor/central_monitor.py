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

    :attr:`node_samples` is the one store of node samples, each a
    :data:`~repro.monitor.statistics.NodeRow` packed into 56 bytes
    (:class:`NodeSamples`): ingestion appends to it and nothing else.
    The CPU and memory means are computed from its records in one pass
    when read, over each node's samples from time 0 to its departure.
    """

    def __init__(self, bus: Optional["TelemetryBus"] = None) -> None:
        self.task_stats: List[TaskStats] = []
        self.node_samples = NodeSamples()
        #: Elastic membership: node_id -> time it left.  Fed by the
        #: elastic manager's departures so aggregation tracks the live
        #: set instead of averaging over ghosts.
        self.departed_nodes: Dict[int, float] = {}
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
        """Track departures so the utilization means follow the live set."""
        if action == "depart":
            self.departed_nodes.setdefault(node_id, time)

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
        """Keep a batch of node samples, each a :data:`NodeRow`.

        Rows inside a blackout window (:meth:`begin_gap`) are dropped;
        the rest are packed into :attr:`node_samples` in the given order.
        """
        if self.gaps:
            rows = [row for row in rows if not self._in_gap(row[0], row[1])]
        self.node_samples.extend(rows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def mean_cpu_utilization(self) -> float:
        return self._mean_over(2)  # a NodeRow's CPU column

    def mean_memory_utilization(self) -> float:
        return self._mean_over(3)  # a NodeRow's memory column

    def _mean_over(self, column: int) -> float:
        """Per-node time-weighted means averaged over *current* capacity.

        A node that departed at or before time 0 contributes nothing;
        any other contributes its samples up to its departure, so a node
        whose samples all came after it contributes 0.0.  Joined nodes
        start contributing from their first sample, so the denominator
        always tracks the live membership.  A node's samples arrive in
        time order, none before time 0.
        """
        departed = self.departed_nodes
        means: Dict[int, Optional[_RunningMean]] = {}
        for record in self.node_samples.records():
            node_id, time = record[0], record[1]
            until = departed.get(node_id)
            if until is not None and time > until:
                means.setdefault(node_id, None)
                continue
            running = means.get(node_id)
            if running is None:
                means[node_id] = _RunningMean(time, record[column])
            else:
                running.add(time, record[column])
        values = []
        for node_id, running in sorted(means.items()):
            until = departed.get(node_id)
            if until is not None and until <= 0.0:
                continue
            values.append(0.0 if running is None else running.mean())
        return sum(values) / len(values) if values else 0.0


class _RunningMean:
    """One node's time-weighted mean, fed its samples in time order.

    Each value holds until the next sample, and the mean runs from the
    first sample to the last.  Samples that share one instant are
    averaged plainly, and one sample is its own mean.
    """

    __slots__ = ("first", "last", "value", "total", "at_first")

    def __init__(self, time: float, value: float) -> None:
        self.first = self.last = time
        self.value = value
        self.total = 0.0
        #: The values sampled at the first instant, kept for ``sum``:
        #: Python 3.12's compensates, which ``+=`` would not repeat.
        self.at_first = [value]

    def add(self, time: float, value: float) -> None:
        self.total += self.value * (time - self.last)
        if time == self.first:
            self.at_first.append(value)
        self.last, self.value = time, value

    def mean(self) -> float:
        span = self.last - self.first
        if span <= 0:
            if len(self.at_first) == 1:
                return self.at_first[0]  # not divided by 1, so -0.0 stays
            return sum(self.at_first) / len(self.at_first)
        return self.total / span
