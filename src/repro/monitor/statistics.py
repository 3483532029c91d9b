"""Statistics records exchanged between monitors and the tuner."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import starmap
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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

#: One :class:`NodeStats` as a 56-byte record, in field order: ``q``
#: (int64) for the node id and container count, ``d`` (float64, every
#: bit kept, -0.0 and NaN included) for the rest.
_NODE_RECORD = struct.Struct("=qdddqdd")


class NodeSamples:
    """Node samples packed into one ``bytearray`` of fixed-width records.

    A run's monitor keeps every sample (~107k in a 210-job service
    stream).  Packed, a sample takes 56 bytes and leaves no object for
    the garbage collector to walk.  :meth:`records` reads the rows back
    with the same int and float types, provided the producer passed ints
    for the two ``q`` fields (``struct`` rejects anything else) and
    floats for the rest.
    """

    def __init__(self) -> None:
        self._records = bytearray()

    def extend(self, rows: Iterable[NodeRow]) -> None:
        """Pack *rows*, each a :data:`NodeRow`, after the samples kept."""
        self._records += b"".join(starmap(_NODE_RECORD.pack, rows))

    def records(self) -> Iterator[NodeRow]:
        """Every sample as a tuple of its fields, in append order.

        Reads a copy of the buffer, so appends may go on while the
        iterator is alive (``iter_unpack`` on the buffer itself would
        forbid resizing it).
        """
        return _NODE_RECORD.iter_unpack(bytes(self._records))

    def __len__(self) -> int:
        return len(self._records) // _NODE_RECORD.size
