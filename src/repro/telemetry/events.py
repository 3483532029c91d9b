"""Typed telemetry events.

Every record on the bus is a frozen dataclass with two class-level
identifiers -- ``category`` (the subscription key) and ``kind`` (the
record type within a category) -- plus a ``time`` stamp in *simulated*
seconds.  Because all timestamps come from the simulation clock, a
serialized event stream is bit-identical across same-seed runs, which
is what makes trace digests CI-gateable.

Categories
----------
``sim``
    Engine internals: event execution and process lifecycle.  High
    volume (one record per calendar event); only exported on request.
``task``
    Task-model phase spans (map read/spill/merge, reduce
    shuffle/sort/reduce) and per-attempt spans.
``stats`` / ``node``
    The monitor feeds: completed-attempt :class:`TaskStats` and
    periodic :class:`NodeStats` samples.  The central monitor is a bus
    subscriber on these two categories.
``yarn``
    RM allocation decisions, NM container lifecycle, AM retry /
    speculation / blacklisting decisions.
``fault``
    Fault-plan injections (applied and skipped).
``tuner``
    Wave openings, rule firings, and hill-climber search decisions.
``job``
    Job submission and completion spans.
``service``
    The multi-tenant tuning service: queueing, dispatch, preemption,
    per-job completion, and the steady-state report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, ClassVar, Dict, Mapping, Tuple

if TYPE_CHECKING:  # pragma: no cover - the monitors import these events
    from repro.monitor.statistics import NodeStats, TaskStats

#: Subscription keys, in the order exporters present them.
CATEGORIES: Tuple[str, ...] = (
    "sim", "task", "stats", "node", "yarn", "fault", "tuner", "job", "service",
)

#: Categories exported by default (everything but the per-event ``sim``
#: firehose, which multiplies trace size by orders of magnitude).
DEFAULT_EXPORT_CATEGORIES: Tuple[str, ...] = tuple(
    c for c in CATEGORIES if c != "sim"
)


def _plain(value: Any) -> Any:
    """Reduce a field value to JSON-serializable plain data."""
    if isinstance(value, enum.Enum):
        return value.name.lower()
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class TelemetryEvent:
    """Base event: a category/kind pair plus a simulated timestamp."""

    category: ClassVar[str] = ""
    kind: ClassVar[str] = ""

    time: float = 0.0

    def to_record(self) -> Dict[str, Any]:
        """Flatten to a dict with deterministic key order.

        The first three keys are always ``time``, ``category``, and
        ``kind``; the rest follow dataclass field order.
        """
        record: Dict[str, Any] = {
            "time": self.time,
            "category": self.category,
            "kind": self.kind,
        }
        for f in fields(self):
            if f.name != "time":
                record[f.name] = _plain(getattr(self, f.name))
        return record


@dataclass(frozen=True)
class SpanEvent(TelemetryEvent):
    """A completed interval: emitted once, at ``end`` (== ``time``).

    Spans are emitted at completion rather than as begin/end pairs so a
    generator-based task model never leaves a dangling open span, and
    so each span maps directly onto one Chrome-trace complete event.
    """

    name: str = ""
    start: float = 0.0
    #: Node the span ran on; ``-1`` places it on the cluster track.
    node_id: int = -1
    #: Track within the node (one per container, per the trace layout).
    track: str = ""

    @property
    def end(self) -> float:
        return self.time

    @property
    def duration(self) -> float:
        return max(0.0, self.time - self.start)


# ----------------------------------------------------------------------
# sim: engine internals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimEventExecuted(TelemetryEvent):
    """One calendar event fired."""

    category: ClassVar[str] = "sim"
    kind: ClassVar[str] = "event"

    description: str = ""


@dataclass(frozen=True)
class ProcessStarted(TelemetryEvent):
    category: ClassVar[str] = "sim"
    kind: ClassVar[str] = "process_start"

    name: str = ""


@dataclass(frozen=True)
class ProcessFinished(TelemetryEvent):
    category: ClassVar[str] = "sim"
    kind: ClassVar[str] = "process_end"

    name: str = ""
    failed: bool = False


# ----------------------------------------------------------------------
# task: phase and attempt spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskPhaseSpan(SpanEvent):
    """One task-model phase (``map.read``, ``reduce.shuffle``, ...)."""

    category: ClassVar[str] = "task"
    kind: ClassVar[str] = "phase"

    job_id: str = ""
    task: str = ""
    attempt: int = 0
    detail: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AttemptSpan(SpanEvent):
    """A whole task attempt, emitted when its stats are recorded."""

    category: ClassVar[str] = "task"
    kind: ClassVar[str] = "attempt"

    job_id: str = ""
    task: str = ""
    attempt: int = 0
    failed: bool = False
    speculative: bool = False


@dataclass(frozen=True)
class FetchRetry(TelemetryEvent):
    """One failed shuffle fetch attempt (timeout or connection error)."""

    category: ClassVar[str] = "task"
    kind: ClassVar[str] = "fetch_retry"

    task: str = ""
    attempt: int = 0
    map_index: int = -1
    src_node_id: int = -1
    dst_node_id: int = -1
    reason: str = ""
    retry: int = 0


# ----------------------------------------------------------------------
# stats / node: the monitor feeds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskStatsRecorded(TelemetryEvent):
    """A completed attempt's counters, as the AM reports them."""

    category: ClassVar[str] = "stats"
    kind: ClassVar[str] = "task_stats"

    stats: TaskStats = None  # type: ignore[assignment]

    def to_record(self) -> Dict[str, Any]:
        s = self.stats
        return {
            "time": self.time,
            "category": self.category,
            "kind": self.kind,
            "job_id": s.task_id.job_id,
            "task": str(s.task_id),
            "task_type": s.task_type.name.lower(),
            "attempt": s.attempt,
            "node_id": s.node_id,
            "start": s.start_time,
            "end": s.end_time,
            "cpu_utilization": s.cpu_utilization,
            "memory_utilization": s.memory_utilization,
            "spill_ratio": s.spill_ratio,
            "failed": s.failed,
            "failure_kind": s.failure_kind,
            "speculative": s.speculative,
            "wave": s.wave,
        }


@dataclass(frozen=True)
class NodeSampled(TelemetryEvent):
    """One slave-monitor sample of a node's resource state."""

    category: ClassVar[str] = "node"
    kind: ClassVar[str] = "node_sample"

    stats: NodeStats = None  # type: ignore[assignment]

    def to_record(self) -> Dict[str, Any]:
        s = self.stats
        return {
            "time": self.time,
            "category": self.category,
            "kind": self.kind,
            "node_id": s.node_id,
            "cpu_utilization": s.cpu_utilization,
            "memory_utilization": s.memory_utilization,
            "running_containers": s.running_containers,
            "rx_utilization": s.rx_utilization,
            "tx_utilization": s.tx_utilization,
        }


# ----------------------------------------------------------------------
# yarn: RM / NM / AM decisions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContainerGranted(TelemetryEvent):
    """The RM satisfied an allocation request."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "container_granted"

    node_id: int = -1
    container_id: int = -1
    memory_bytes: float = 0.0
    cores: float = 0.0


@dataclass(frozen=True)
class ContainerReleased(TelemetryEvent):
    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "container_released"

    node_id: int = -1
    container_id: int = -1


@dataclass(frozen=True)
class ContainerKilled(TelemetryEvent):
    """An NM killed a running container (fault, preemption, OOM...)."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "container_killed"

    node_id: int = -1
    container_id: int = -1
    reason: str = ""
    detail: str = ""


@dataclass(frozen=True)
class NodeLost(TelemetryEvent):
    """The RM expired a node's liveness (crash / decommission)."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "node_lost"

    node_id: int = -1


@dataclass(frozen=True)
class NodeBlacklisted(TelemetryEvent):
    """An AM stopped requesting containers on a failing node."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "node_blacklisted"

    node_id: int = -1
    job_id: str = ""
    failures: int = 0


@dataclass(frozen=True)
class NodeDecommission(TelemetryEvent):
    """A node entered graceful drain: no new containers, running tasks
    finish, then the node leaves the cluster."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "node_decommission"

    node_id: int = -1
    running_containers: int = 0


@dataclass(frozen=True)
class NodeJoin(TelemetryEvent):
    """A new node registered mid-run and entered scheduling."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "node_join"

    node_id: int = -1
    rack: int = 0


@dataclass(frozen=True)
class PreemptNotice(TelemetryEvent):
    """A spot-preemption notice landed: the node will be hard-killed at
    ``deadline`` and stops accepting containers immediately."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "preempt_notice"

    node_id: int = -1
    deadline: float = 0.0
    running_containers: int = 0


@dataclass(frozen=True)
class PreemptKill(TelemetryEvent):
    """The grace window expired: remaining containers were killed and
    the node was reclaimed."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "preempt_kill"

    node_id: int = -1
    killed_containers: int = 0


@dataclass(frozen=True)
class CapacityChange(TelemetryEvent):
    """Cluster capacity changed: a node joined or departed."""

    category: ClassVar[str] = "node"
    kind: ClassVar[str] = "capacity_change"

    node_id: int = -1
    action: str = ""  # "join" | "depart"
    live_nodes: int = 0
    live_yarn_memory_bytes: float = 0.0


@dataclass(frozen=True)
class AttemptRetry(TelemetryEvent):
    """An AM re-queued a failed attempt (the retry ladder)."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "attempt_retry"

    job_id: str = ""
    task: str = ""
    attempt: int = 0
    next_attempt: int = 0
    failure_kind: str = ""
    reason: str = ""


@dataclass(frozen=True)
class FetchFailureReport(TelemetryEvent):
    """A reducer reported repeated fetch failures against a map output."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "fetch_failure_report"

    job_id: str = ""
    map_index: int = -1
    src_node_id: int = -1
    reporter: str = ""
    distinct_reporters: int = 0


@dataclass(frozen=True)
class MapOutputLost(TelemetryEvent):
    """Fetch-failure reports crossed the threshold; the map re-executes."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "map_output_lost"

    job_id: str = ""
    map_index: int = -1
    src_node_id: int = -1
    reports: int = 0


@dataclass(frozen=True)
class SpeculativeLaunch(TelemetryEvent):
    """The AM launched a backup attempt for a straggler."""

    category: ClassVar[str] = "yarn"
    kind: ClassVar[str] = "speculative_launch"

    job_id: str = ""
    task: str = ""
    attempt: int = 0


# ----------------------------------------------------------------------
# fault: injected scenario steps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultInjected(TelemetryEvent):
    """One fault-plan entry was applied (or skipped as moot)."""

    category: ClassVar[str] = "fault"
    kind: ClassVar[str] = "fault"

    fault_kind: str = ""
    node_id: int = -1
    applied: bool = True
    detail: str = ""


# ----------------------------------------------------------------------
# tuner: MRONLINE decisions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WaveOpened(TelemetryEvent):
    """The tuner handed a fresh batch of test configs to a wave."""

    category: ClassVar[str] = "tuner"
    kind: ClassVar[str] = "wave_opened"

    job_id: str = ""
    task_type: str = ""
    wave: int = 0
    num_configs: int = 0


@dataclass(frozen=True)
class RuleFired(TelemetryEvent):
    """A tuning rule adjusted bounds (aggressive) or config (conservative)."""

    category: ClassVar[str] = "tuner"
    kind: ClassVar[str] = "rule_fired"

    job_id: str = ""
    task_type: str = ""
    rule: str = ""
    detail: str = ""


@dataclass(frozen=True)
class TunerRollback(TelemetryEvent):
    """The tuner voided a candidate wave and fell back to the
    last-known-good configuration.

    ``reason`` says why: ``"fetch"`` (a majority of samples were
    fetch-inflated or lost to the environment), ``"capacity"`` (cluster
    membership changed mid-wave), ``"outage"`` (the control plane was
    dark mid-wave) or ``"crash"`` (the tuner process died).
    ``suspect_samples`` counts the quarantined samples among the
    ``total_samples`` the wave had reported."""

    category: ClassVar[str] = "tuner"
    kind: ClassVar[str] = "tuner_rollback"

    job_id: str = ""
    task_type: str = ""
    wave: int = 0
    reason: str = ""
    suspect_samples: int = 0
    total_samples: int = 0


@dataclass(frozen=True)
class SearchDecision(TelemetryEvent):
    """One hill-climber step: accept / reject / shrink / infeasible..."""

    category: ClassVar[str] = "tuner"
    kind: ClassVar[str] = "search_decision"

    job_id: str = ""
    task_type: str = ""
    decision: str = ""
    detail: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TunerCrash(TelemetryEvent):
    """The tuner process died; wave gates fall back to releasing tasks
    immediately on the last-known-good configuration until recovery."""

    category: ClassVar[str] = "tuner"
    kind: ClassVar[str] = "tuner_crash"

    down_until: float = 0.0
    open_searches: int = 0
    voided_waves: int = 0


@dataclass(frozen=True)
class TunerRecovered(TelemetryEvent):
    """The tuner restarted after a crash: outage-spanning waves were
    quarantined and the search resumed from the incumbent."""

    category: ClassVar[str] = "tuner"
    kind: ClassVar[str] = "tuner_recovered"

    downtime: float = 0.0
    reopened_waves: int = 0


@dataclass(frozen=True)
class MonitorOutage(TelemetryEvent):
    """The central monitor went dark: slave-stats samples in the window
    are lost and Eq-1 windows bridge the gap instead of reading zeros."""

    category: ClassVar[str] = "fault"
    kind: ClassVar[str] = "monitor_outage"

    until: float = 0.0


@dataclass(frozen=True)
class StatsGap(TelemetryEvent):
    """One slave monitor stopped reporting for a window."""

    category: ClassVar[str] = "fault"
    kind: ClassVar[str] = "stats_gap"

    node_id: int = -1
    until: float = 0.0


@dataclass(frozen=True)
class WorkerHang(TelemetryEvent):
    """The local backend's watchdog SIGKILLed a worker that blew its
    wall-clock liveness deadline; the task retries as ``hang``."""

    category: ClassVar[str] = "fault"
    kind: ClassVar[str] = "worker_hang"

    task: str = ""
    deadline: float = 0.0
    attempt: int = 0


# ----------------------------------------------------------------------
# service: the multi-tenant tuning service
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceJobQueued(TelemetryEvent):
    """A tenant's job arrived and entered its per-tenant queue."""

    category: ClassVar[str] = "service"
    kind: ClassVar[str] = "job_queued"

    tenant: str = ""
    job_name: str = ""
    arrival: float = 0.0


@dataclass(frozen=True)
class ServiceJobDispatched(TelemetryEvent):
    """The fair-share dispatcher started a queued job on the cluster."""

    category: ClassVar[str] = "service"
    kind: ClassVar[str] = "job_dispatched"

    tenant: str = ""
    job_id: str = ""
    job_name: str = ""
    queue_delay: float = 0.0
    warm_started: bool = False


@dataclass(frozen=True)
class ServicePreemption(TelemetryEvent):
    """A starved tenant preempted capacity: the most over-share running
    job was down-weighted and the waiting job dispatched over it."""

    category: ClassVar[str] = "service"
    kind: ClassVar[str] = "preemption"

    tenant: str = ""
    victim_tenant: str = ""
    victim_job_id: str = ""
    waited: float = 0.0


@dataclass(frozen=True)
class ServiceJobCompleted(TelemetryEvent):
    """One service job finished; latency is completion minus arrival."""

    category: ClassVar[str] = "service"
    kind: ClassVar[str] = "job_completed"

    tenant: str = ""
    job_id: str = ""
    job_name: str = ""
    latency: float = 0.0
    slo_met: bool = True


@dataclass(frozen=True)
class ServiceSteadyState(TelemetryEvent):
    """The end-of-run steady-state report, as one summary record."""

    category: ClassVar[str] = "service"
    kind: ClassVar[str] = "steady_state"

    jobs_completed: int = 0
    throughput_jobs_per_sec: float = 0.0
    p50_latency: float = 0.0
    p95_latency: float = 0.0
    slo_attainment: float = 0.0
    preemptions: int = 0


# ----------------------------------------------------------------------
# job: submission and completion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSubmitted(TelemetryEvent):
    category: ClassVar[str] = "job"
    kind: ClassVar[str] = "job_submitted"

    job_id: str = ""
    name: str = ""
    num_maps: int = 0
    num_reduces: int = 0


@dataclass(frozen=True)
class JobFinished(SpanEvent):
    """The whole job as a span, emitted when its result materializes."""

    category: ClassVar[str] = "job"
    kind: ClassVar[str] = "job_finished"

    job_id: str = ""
    succeeded: bool = True
