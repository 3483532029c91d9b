"""Statistics records exchanged between monitors and the tuner."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import starmap
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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


@dataclass(init=False)
class NodeStats:
    """A point-in-time sample of one node's resource state."""

    node_id: int
    time: float
    cpu_utilization: float
    memory_utilization: float
    running_containers: int
    rx_utilization: float = 0.0
    tx_utilization: float = 0.0

    # Written out rather than generated, though it runs no faster: every
    # generated ``__init__`` has the code location ``('<string>', 2)``, so
    # a profile keyed by (file, line, name) folds them all into one entry
    # and loses the time of this one, which runs once per node per tick.
    def __init__(
        self,
        node_id: int,
        time: float,
        cpu_utilization: float,
        memory_utilization: float,
        running_containers: int,
        rx_utilization: float = 0.0,
        tx_utilization: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self.time = time
        self.cpu_utilization = cpu_utilization
        self.memory_utilization = memory_utilization
        self.running_containers = running_containers
        self.rx_utilization = rx_utilization
        self.tx_utilization = tx_utilization


#: One :class:`NodeStats` as a 56-byte record, in field order: ``q``
#: (int64) for the node id and container count, ``d`` (float64, every
#: bit kept, -0.0 and NaN included) for the rest.
_NODE_RECORD = struct.Struct("=qdddqdd")


class NodeSamples(Sequence[NodeStats]):
    """Node samples packed into one ``bytearray`` of fixed-width records.

    A run's monitor keeps every sample (~107k in a 210-job service
    stream).  Packed, a sample takes 56 bytes and leaves no object for
    the garbage collector to walk.  Indexing and iteration rebuild
    :class:`NodeStats` equal to the ones appended, with the same int and
    float types, provided the producer passed ints for the two ``q``
    fields (``struct`` rejects anything else) and floats for the rest.
    """

    def __init__(self) -> None:
        self._records = bytearray()

    def append(self, sample: NodeStats) -> None:
        self._records += _NODE_RECORD.pack(
            sample.node_id,
            sample.time,
            sample.cpu_utilization,
            sample.memory_utilization,
            sample.running_containers,
            sample.rx_utilization,
            sample.tx_utilization,
        )

    def records(self) -> Iterator[Tuple[int, float, float, float, int, float, float]]:
        """Every sample as a tuple of its fields, in append order.

        Reads a copy of the buffer, so appends may go on while the
        iterator is alive (``iter_unpack`` on the buffer itself would
        forbid resizing it).
        """
        return _NODE_RECORD.iter_unpack(bytes(self._records))

    def __len__(self) -> int:
        return len(self._records) // _NODE_RECORD.size

    def __iter__(self) -> Iterator[NodeStats]:
        return starmap(NodeStats, self.records())

    def __getitem__(self, index: Union[int, slice]) -> Union[NodeStats, List[NodeStats]]:
        # range() normalizes negative indices and slices, and raises
        # IndexError past either end, exactly as a list would.
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return [self._unpack(row) for row in rows]
        return self._unpack(rows)

    def _unpack(self, row: int) -> NodeStats:
        return NodeStats(*_NODE_RECORD.unpack_from(self._records, row * _NODE_RECORD.size))


@dataclass
class UtilizationTimeline:
    """Accumulates utilization samples; reports time-weighted means."""

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def add(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def mean(self, since: float = 0.0, until: Optional[float] = None) -> float:
        pairs = []
        boundary = None  # last sample at or before the window start
        for t, v in zip(self.times, self.values):
            if until is not None and t > until:
                # Samples are appended in time order; everything past the
                # cap (a node's departure, say) is outside the window.
                break
            if t >= since:
                pairs.append((t, v))
            else:
                boundary = v
        if boundary is not None and (not pairs or pairs[0][0] > since):
            # The level in effect at the window start comes from the last
            # pre-window sample; without it, short windows ignore whatever
            # utilization was already established when the window opened.
            pairs.insert(0, (since, boundary))
        if not pairs:
            return 0.0
        if len(pairs) == 1:
            return pairs[0][1]
        total = 0.0
        span = pairs[-1][0] - pairs[0][0]
        if span <= 0:
            return sum(v for _, v in pairs) / len(pairs)
        for (t0, v0), (t1, _v1) in zip(pairs, pairs[1:]):
            total += v0 * (t1 - t0)
        return total / span
