"""Statistics records exchanged between monitors and the tuner."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mapreduce.jobspec import TaskId, TaskType


#: Failure kinds the environment (not the configuration) is to blame
#: for: see :attr:`TaskStats.failure_kind`.
ENVIRONMENTAL_KINDS = frozenset(
    {"preempted", "node_lost", "speculation", "fetch_failure"}
)


@dataclass
class TaskStats:
    """Everything the monitor reports about one finished task attempt.

    This is deliberately restricted to signals a real YARN deployment
    exposes (job counters + container utilization); the tuner is
    gray-box, not omniscient.
    """

    task_id: TaskId
    task_type: TaskType
    node_id: int
    attempt: int
    config: Dict[str, float]
    start_time: float
    end_time: float
    #: Core-seconds of CPU actually consumed.
    cpu_seconds: float
    #: Core-capacity the container was entitled to (cores).
    allocated_cores: float
    #: Peak resident working set in bytes.
    working_set_bytes: float
    container_memory_bytes: float
    spilled_records: int = 0
    map_output_records: int = 0
    map_output_bytes: float = 0.0
    combine_output_records: int = 0
    shuffled_bytes: float = 0.0
    reduce_input_records: int = 0
    failed: bool = False
    failure_reason: str = ""
    #: Classifies a failure for the tuner: ``"oom"`` is config-induced
    #: (the sampled point is infeasible), while the
    #: :data:`ENVIRONMENTAL_KINDS` are not the config's fault: they are
    #: penalized more gently and consume the re-execution budget, never
    #: the config ladder.
    failure_kind: str = ""
    #: True for backup attempts launched by speculative execution; their
    #: stats bypass the tuner's wave accounting entirely.
    speculative: bool = False
    #: Wave index assigned by the launch gate (aggressive tuning).
    wave: int = -1
    #: Failed shuffle fetch attempts (timeouts/connection errors) this
    #: attempt retried through -- nonzero marks the measurement as
    #: fetch-inflated for the tuner's stat discounting.
    fetch_retries: int = 0
    #: Simulated seconds this attempt spent in fetch backoff sleeps.
    fetch_penalty_seconds: float = 0.0

    @property
    def duration(self) -> float:
        return max(0.0, self.end_time - self.start_time)

    @property
    def memory_utilization(self) -> float:
        """u_mem in Equation 1: peak working set over the container grant."""
        if self.container_memory_bytes <= 0:
            return 0.0
        return min(1.0, self.working_set_bytes / self.container_memory_bytes)

    @property
    def cpu_utilization(self) -> float:
        """u_cpu in Equation 1: CPU consumed over the container's entitlement."""
        denom = self.duration * self.allocated_cores
        if denom <= 0:
            return 0.0
        return min(1.0, self.cpu_seconds / denom)

    @property
    def spill_ratio(self) -> float:
        """Spilled records over map/combine output records (Equation 1).

        For reduce tasks the denominator is the shuffled record count.
        """
        if self.task_type is TaskType.MAP:
            denom = self.combine_output_records or self.map_output_records
        else:
            denom = self.reduce_input_records
        if denom <= 0:
            return 0.0 if self.spilled_records == 0 else 1.0
        return self.spilled_records / denom


@dataclass
class AttemptProgress:
    """A running attempt's live progress (feeds LATE-style speculation)."""

    task_id: TaskId
    task_type: TaskType
    attempt: int
    node_id: int
    start_time: float
    fraction: float = 0.0  # 0..1, updated at phase boundaries

    def progress_rate(self, now: float) -> float:
        """Progress per second since launch (LATE's scoring metric)."""
        elapsed = now - self.start_time
        if elapsed <= 0:
            return float("inf")
        return self.fraction / elapsed

    def estimated_remaining(self, now: float) -> float:
        """Time left at the observed rate; infinite while rate is ~zero."""
        rate = self.progress_rate(now)
        if rate <= 1e-12:
            return float("inf")
        return (1.0 - self.fraction) / rate


class ProgressBoard:
    """Tracks per-attempt progress fractions for one job.

    Task models report coarse fractions at phase boundaries (read, sort,
    shuffle, merge, reduce); the app master's speculator reads the board
    to find stragglers.  This mirrors what Hadoop's AM learns from task
    heartbeats, not an omniscient view.
    """

    def __init__(self) -> None:
        self._running: Dict[tuple, AttemptProgress] = {}

    def start(self, task_id: TaskId, attempt: int, task_type: TaskType,
              node_id: int, now: float) -> None:
        key = (str(task_id), attempt)
        self._running[key] = AttemptProgress(
            task_id=task_id, task_type=task_type, attempt=attempt,
            node_id=node_id, start_time=now,
        )

    def get(self, task_id: TaskId, attempt: int) -> Optional[AttemptProgress]:
        """One live attempt's progress, or None once it has finished."""
        return self._running.get((str(task_id), attempt))

    def update(self, task_id: TaskId, attempt: int, fraction: float) -> None:
        entry = self.get(task_id, attempt)
        if entry is not None:
            entry.fraction = max(entry.fraction, min(1.0, fraction))

    def finish(self, task_id: TaskId, attempt: int) -> None:
        self._running.pop((str(task_id), attempt), None)

    def running(self) -> List[AttemptProgress]:
        """All live attempts, in deterministic (task, attempt) order."""
        return [self._running[k] for k in sorted(self._running)]


@dataclass
class NodeStats:
    """A point-in-time sample of one node's resource state."""

    node_id: int
    time: float
    cpu_utilization: float
    memory_utilization: float
    running_containers: int
    rx_utilization: float = 0.0
    tx_utilization: float = 0.0


#: One node sample as a tuple of :class:`NodeStats`' fields, in order:
#: ``(node_id, time, cpu, memory, containers, rx, tx)``.
NodeRow = Tuple[int, float, float, float, int, float, float]


class _NodeMeans:
    """One node's running CPU and memory means, fed its samples in time order.

    Each value holds until the node's next sample, and a mean runs from
    its first sample to its last.  Samples that share the first instant
    are averaged plainly, and one sample is its own mean.
    :meth:`NodeSamples.extend` updates the fields inline.
    """

    __slots__ = ("first", "last", "cpu", "memory", "cpu_total", "memory_total", "at_first")

    def __init__(self, time: float, cpu: float, memory: float) -> None:
        self.first = self.last = time
        self.cpu = cpu
        self.memory = memory
        self.cpu_total = self.memory_total = 0.0
        #: The CPU and memory values sampled at the first instant, in
        #: turn, kept for ``sum``: Python 3.12's compensates, which
        #: ``+=`` would not repeat.
        self.at_first = [cpu, memory]

    def means(self) -> Tuple[float, float]:
        span = self.last - self.first
        if span <= 0:
            at_first = self.at_first
            if len(at_first) == 2:
                return at_first[0], at_first[1]  # not divided by 1, so -0.0 stays
            cpu, memory = at_first[0::2], at_first[1::2]
            return sum(cpu) / len(cpu), sum(memory) / len(memory)
        return self.cpu_total / span, self.memory_total / span


class NodeSamples:
    """Node samples folded into per-node running CPU and memory means.

    Each row is folded into its node's means as it arrives and then
    dropped, so the memory kept grows with the nodes, not the samples
    (~107k in a 210-job service stream).  A row later than its node's
    departure in *departed* (the monitor's record, read, never written)
    is counted but not folded.  ``len`` counts every row handed to
    :meth:`extend`.
    """

    def __init__(self, departed: Dict[int, float]) -> None:
        self._departed = departed
        #: node id -> its means, or None while every row of it came
        #: after its departure.
        self._nodes: Dict[int, Optional[_NodeMeans]] = {}
        self._count = 0

    def extend(self, rows: Sequence[NodeRow]) -> None:
        """Fold *rows*, each a :data:`NodeRow`, into their nodes' means.

        A node's rows must arrive in time order, after the rows of it
        already folded.
        """
        nodes = self._nodes
        departed = self._departed
        for node_id, time, cpu, memory, _, _, _ in rows:
            if departed:
                until = departed.get(node_id)
                if until is not None and time > until:
                    nodes.setdefault(node_id, None)
                    continue
            node = nodes.get(node_id)
            if node is None:
                nodes[node_id] = _NodeMeans(time, cpu, memory)
                continue
            elapsed = time - node.last
            node.cpu_total += node.cpu * elapsed
            node.memory_total += node.memory * elapsed
            if time == node.first:
                node.at_first += (cpu, memory)
            node.last = time
            node.cpu = cpu
            node.memory = memory
        self._count += len(rows)

    def folded_after(self, node_id: int, time: float) -> bool:
        """Whether a row of *node_id* later than *time* was folded."""
        node = self._nodes.get(node_id)
        return node is not None and node.last > time

    def means(self) -> Tuple[float, float]:
        """Per-node time-weighted CPU and memory means, averaged over nodes.

        A node that departed at or before time 0 contributes nothing;
        any other contributes its rows up to its departure, so a node
        whose rows all came after it contributes 0.0.  A joined node
        counts from its first row, so the average follows the live set.
        """
        departed = self._departed
        cpu: List[float] = []
        memory: List[float] = []
        for node_id, node in sorted(self._nodes.items()):
            until = departed.get(node_id)
            if until is not None and until <= 0.0:
                continue
            node_cpu, node_memory = (0.0, 0.0) if node is None else node.means()
            cpu.append(node_cpu)
            memory.append(node_memory)
        if not cpu:
            return 0.0, 0.0
        return sum(cpu) / len(cpu), sum(memory) / len(memory)

    def __len__(self) -> int:
        return self._count
