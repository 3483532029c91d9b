"""The MapReduce application master.

Runs one job: spawns a lifecycle process per task, requests
appropriately sized containers (per-task configuration!), enforces
slowstart and reduce ramp-up, retries failed attempts, and aggregates
counters.

Each task attempt walks one state machine (:class:`_Stage`): it waits
for gate admission, a request token, reduce ramp-up headroom and a
container grant, then runs.  A kill while it waits rolls back exactly
what its stage holds or awaits; settling then releases the rest and
reports one stats record, so every admitted attempt is released once.

Two seams let MRONLINE plug in without the AM knowing about tuning:

* a **config provider** is consulted for every task attempt's
  configuration (the dynamic configurator's per-task table sits behind
  it), and
* a **launch gate** controls when a task may be requested.  The default
  gate admits immediately (conservative tuning "does not interrupt the
  application task scheduling sequence"); the aggressive tuner's gate
  holds the next wave until the current one's statistics are in.

Fault tolerance mirrors Hadoop's MRAppMaster: attempts lost to a dead
node or a preemption are re-executed (with their own retry budget,
separate from the config-failure ladder that ends at the safe fallback
configuration), nodes that repeatedly kill attempts are blacklisted for
the application, and -- when enabled -- a LATE-style speculator launches
backup attempts for stragglers; the first finisher wins and the loser is
killed and its partial output swept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, Generator, List, Optional, Protocol, Set, Tuple

import numpy as np

from repro.cluster.container import Container
from repro.cluster.node import NodeState
from repro.cluster.topology import Cluster
from repro.core import parameters as P
from repro.core.configuration import Configuration, enforce_dependencies
from repro.hdfs.filesystem import HdfsFileSystem
from repro.mapreduce.counters import Counter, Counters
from repro.mapreduce.dataflow import JobDataflow
from repro.mapreduce.jobspec import JobSpec, TaskId, TaskType
from repro.mapreduce.map_task import run_map_task
from repro.mapreduce.reduce_task import attempt_output_dir, run_reduce_task
from repro.mapreduce.shuffle import MapOutputCatalog
from repro.mapreduce.task_context import TaskContext
from repro.monitor.statistics import ENVIRONMENTAL_KINDS, ProgressBoard, TaskStats
from repro.sim.engine import Simulator
from repro.sim.events import Event, Interrupt, Process, reraise_failure
from repro.sim.resources import Semaphore
from repro.telemetry.events import (
    AttemptRetry,
    AttemptSpan,
    FetchFailureReport,
    JobFinished,
    JobSubmitted,
    MapOutputLost,
    NodeBlacklisted,
    SpeculativeLaunch,
    TaskStatsRecorded,
)
from repro.yarn.node_manager import KillReason, NodeManager
from repro.yarn.records import ContainerRequest, Priority, Resource
from repro.yarn.resource_manager import ResourceManager

#: Config-failure ladder: tuned/task config, then the safe fallback.
MAX_TASK_ATTEMPTS = 2
#: Re-executions after kills (preemption, node loss) per task.
MAX_ENV_RETRIES = 4
#: Environmental failures on one node before the AM blacklists it.
BLACKLIST_THRESHOLD = 3
#: Fetch-failure reports against one map output before the AM declares
#: it lost and re-executes the map (capped at the number of reducers,
#: so small jobs still converge).
FETCH_FAILURE_THRESHOLD = 3
#: Cluster-wide cap on concurrently running speculative backups.
MAX_CONCURRENT_BACKUPS = 4
#: Fraction of cluster memory reduce containers may occupy while maps
#: are still pending (MRAppMaster's reduce ramp-up limit).
REDUCE_RAMPUP_LIMIT = 0.5


@dataclass(frozen=True)
class SpeculationSettings:
    """LATE-style speculative execution knobs."""

    #: How often the speculator scans the progress board.
    interval: float = 15.0
    #: An attempt is a straggler candidate once it has been running
    #: longer than this multiple of the mean completed-task duration.
    slowness_factor: float = 1.5
    #: Completed tasks (per type) needed before estimates are trusted.
    min_completed: int = 1


@dataclass(frozen=True)
class FaultToleranceSettings:
    """Speculation policy for one job."""

    #: None disables speculative execution (the default: a fault-free
    #: run must stay bit-identical to earlier versions of itself).
    speculation: Optional[SpeculationSettings] = None


class ConfigProvider(Protocol):
    """Source of per-task configurations (Table-1 seam)."""

    def task_config(self, spec: JobSpec, task_id: TaskId) -> Configuration:
        """A feasible configuration for *task_id*; it sizes the container ask."""

    def task_launch_config(
        self, spec: JobSpec, task_id: TaskId, requested: Configuration
    ) -> Configuration:
        """The configuration the task runs once its container is granted."""


class BaseConfigProvider:
    """Every task runs the job's base configuration (vanilla YARN)."""

    def task_config(self, spec: JobSpec, task_id: TaskId) -> Configuration:
        return enforce_dependencies(spec.base_config)

    def task_launch_config(
        self, spec: JobSpec, task_id: TaskId, requested: Configuration
    ) -> Configuration:
        return requested


class LaunchGate:
    """Default gate: admit every task immediately (wave = -1)."""

    def admit(self, task_type: TaskType, sim: Simulator) -> Event:
        ev = sim.event()
        ev.succeed(-1)
        return ev

    def retract(self, task_type: TaskType, admit_event: Event) -> None:
        """Withdraw a queued admission whose attempt was killed."""


@dataclass
class JobResult:
    """Outcome of one job run."""

    job_id: str
    succeeded: bool
    start_time: float
    end_time: float
    counters: Counters
    task_stats: List[TaskStats]
    #: Failed/killed attempt counts keyed by failure kind (``"oom"``,
    #: ``"preempted"``, ``"node_lost"``, ``"speculation"``) -- empty for
    #: a clean run.  A job can succeed with a non-empty map (attempts
    #: were lost but re-execution recovered them).
    failure_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def stats_of(self, task_type: TaskType) -> List[TaskStats]:
        return [s for s in self.task_stats if s.task_type is task_type]

    def failure_summary(self) -> str:
        """Human-readable aggregation, e.g. ``"oom x3, node_lost x1"``."""
        if not self.failure_reasons:
            return ""
        return ", ".join(
            f"{kind} x{count}" for kind, count in sorted(self.failure_reasons.items())
        )


class _Stage(IntEnum):
    """Where an attempt's runner waits; each stage holds all earlier ones.

    Speculative backups skip the gate and the token; only reduces wait
    for headroom.  :meth:`MRAppMaster._rollback` undoes each waiting
    stage, and :meth:`MRAppMaster._settle` releases what is held.
    """

    NEW = 0  # spawned; the runner has not started
    ADMISSION = 1  # waits for the launch gate
    TOKEN = 2  # holds a wave slot; waits for a request token
    HEADROOM = 3  # holds the token; waits for reduce ramp-up headroom
    GRANT = 4  # holds the token (and reduce memory); waits for a container
    RUNNING = 5  # the task process runs in the container
    SETTLED = 6  # released everything and reported its stats


class _Attempt:
    """One container-level execution attempt of a task."""

    __slots__ = (
        "number", "speculative", "tier", "wave", "config",
        "container", "runner", "avoid_nodes", "migration", "stage",
        "pending", "request",
    )

    def __init__(
        self,
        number: int,
        speculative: bool,
        tier: int,
        config: Optional[Configuration] = None,
        avoid_nodes: Tuple[int, ...] = (),
        migration: bool = False,
    ) -> None:
        self.number = number
        self.speculative = speculative
        #: 1 = the task's assigned configuration, 2 = the safe fallback.
        self.tier = tier
        self.wave = -1
        self.config = config
        self.container: Optional[Container] = None
        self.runner: Optional[Process] = None
        self.avoid_nodes = avoid_nodes
        #: A grace-window replacement launched on a preemption notice;
        #: while one is live the doomed primary's death triggers no
        #: crash-style re-execution.
        self.migration = migration
        self.stage = _Stage.NEW
        #: What the runner waits on at ``stage`` (None at HEADROOM); at
        #: RUNNING, the task's process.
        self.pending: Optional[Event] = None
        self.request: Optional[ContainerRequest] = None

    def enter(self, stage: _Stage, pending: Event) -> Event:
        """Record that the runner now waits at *stage* on *pending*."""
        self.stage, self.pending = stage, pending
        return pending

    @property
    def settled(self) -> bool:
        return self.stage is _Stage.SETTLED


class _TaskRun:
    """Tracker for one logical task across all of its attempts."""

    __slots__ = (
        "task_id", "task_type", "index", "attempt_counter", "running",
        "winner", "config_failures", "env_failures",
        "permanent", "done", "tier1_config", "inbox", "waiter",
        "relaunch_on_settle",
    )

    def __init__(self, task_id: TaskId, task_type: TaskType, index: int) -> None:
        self.task_id = task_id
        self.task_type = task_type
        self.index = index
        self.attempt_counter = 0
        #: Live attempts: added when spawned, removed when settled.
        self.running: List[_Attempt] = []
        self.winner: Optional[TaskStats] = None
        self.config_failures = 0
        self.env_failures = 0
        self.permanent = False
        self.done = False
        #: The provider-assigned configuration, resolved once; environmental
        #: retries re-evaluate it rather than popping a fresh one.
        self.tier1_config: Optional[Configuration] = None
        self.inbox: List[Tuple[_Attempt, TaskStats]] = []
        self.waiter: Optional[Event] = None
        #: Set when this task's map output was declared lost while the
        #: lifecycle was still settling attempts: re-execute once every
        #: in-flight attempt has settled instead of finishing.
        self.relaunch_on_settle = False


def _lost_attempt_stats(run: _TaskRun, end_time: float, **fields) -> TaskStats:
    """A failed attempt's record that measured no work (zero CPU)."""
    return TaskStats(
        task_id=run.task_id, task_type=run.task_type, end_time=end_time,
        cpu_seconds=0.0, allocated_cores=0.0, working_set_bytes=0.0,
        failed=True, **fields,
    )


def _request_tokens(sim: Simulator, cluster: Cluster, job_id: str) -> Dict[TaskType, Semaphore]:
    """Bound each task type to ~half a wave of outstanding container requests.

    Configurations are resolved at request time, so a bounded pipeline
    is what makes category-2 parameters (container size!) tunable
    mid-job: requests made a whole job in advance would freeze the
    sizing at submission-time values.  Half a wave keeps the scheduler
    fed while letting tuning reach tasks within the same wave in shared
    (multi-tenant) clusters.
    """
    depth = max(16, cluster.total_yarn_memory // (2 * 1024 * 1024 * 1024))
    return {
        TaskType.MAP: Semaphore(sim, depth, name=f"{job_id}-mreq"),
        TaskType.REDUCE: Semaphore(sim, depth, name=f"{job_id}-rreq"),
    }


class MRAppMaster:
    """Per-job orchestration (YARN delegates task tracking to us)."""

    def __init__(
        self, sim: Simulator, cluster: Cluster, hdfs: HdfsFileSystem, rm: ResourceManager,
        node_managers: Dict[int, NodeManager], spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
        rng: Optional[np.random.Generator] = None,
        app_weight: float = 1.0,
        fault_tolerance: Optional[FaultToleranceSettings] = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.hdfs = hdfs
        self.rm = rm
        self.node_managers = node_managers
        self.spec = spec
        self.provider: ConfigProvider = config_provider or BaseConfigProvider()
        self.gate = gate or LaunchGate()
        self.app_weight = app_weight
        self.ft = fault_tolerance or FaultToleranceSettings()

        self._input_file = hdfs.get(spec.input_path)
        self.dataflow = JobDataflow(spec, self._input_file, rng=rng)
        self.catalog = MapOutputCatalog(sim, self.dataflow.num_maps, self.dataflow.num_reducers)
        self.progress = ProgressBoard()
        self.ctx = TaskContext(
            sim, cluster, hdfs, spec, self.dataflow, self.catalog, progress=self.progress
        )
        if getattr(cluster.network, "faults", None) is not None:
            # The injector armed the gray-failure network state before
            # this job was submitted: switch reducers onto the per-fetch
            # recovery path and accept their fetch-failure reports.
            self.ctx.report_fetch_failure = self._on_fetch_failure_report

        self.completion: Event = sim.event()
        self.counters = Counters()
        self.task_stats: List[TaskStats] = []
        self.stats_listeners: List[Callable[[TaskStats], None]] = []

        self._start_time: float = 0.0
        self._runs: Dict[str, _TaskRun] = {}
        self._completed_maps = 0
        self._map_lifecycles_done = 0
        self._lifecycles_done = 0
        self._permanent_failures = 0
        self._reduces_started = False
        self._reduce_mem_outstanding = 0
        #: Reducers parked on the ramp-up limit, in park order:
        #: ``(event, memory_bytes, limit)``.  ``limit`` is the one
        #: computed when the reducer parked; a node that joins later
        #: raises the cluster's memory but not a parked reducer's limit.
        self._headroom_waiters: List[Tuple[Event, int, float]] = []
        self._started = False
        #: Per-node environmental failure counts and the resulting
        #: application-level blacklist (Hadoop's AM blacklisting).
        self._node_failures: Dict[int, int] = {}
        #: Fetch-failure aggregation per map index: total report count
        #: and the distinct reporting reducers (telemetry detail).
        self._fetch_report_counts: Dict[int, int] = {}
        self._fetch_reporters: Dict[int, Set[str]] = {}
        #: Loss details awaiting a lifecycle to charge them, keyed by
        #: task id: ``(map_index, src_node_id, report_count)``.
        self._pending_loss: Dict[str, Tuple[int, int, int]] = {}
        self._blacklisted_nodes: Set[int] = set()
        #: Attempts proactively migrated off preemption-noticed nodes
        #: during the grace window (elastic churn only).
        self.preempt_migrations = 0
        #: Mean-duration inputs for the speculator, per task type.
        self._completed_durations: Dict[TaskType, List[float]] = {t: [] for t in TaskType}
        self._request_tokens = _request_tokens(sim, cluster, spec.job_id)

    def _telemetry(self, category: str):
        """The attached bus if someone subscribed to *category*, else None."""
        tel = self.sim.telemetry
        if tel is not None and tel.wants(category):
            return tel
        return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Event:
        """Submit the job; returns the completion event."""
        if self._started:
            raise RuntimeError("job already started")
        self._started = True
        self._start_time = self.sim.now
        tel = self._telemetry("job")
        if tel is not None:
            tel.emit(
                JobSubmitted(
                    time=self.sim.now,
                    job_id=self.spec.job_id,
                    name=self.spec.name,
                    num_maps=self.dataflow.num_maps,
                    num_reduces=self.dataflow.num_reducers,
                )
            )
        self.rm.register_app(self.spec.job_id, weight=self.app_weight)
        for index in range(self.dataflow.num_maps):
            run = self._make_run(TaskType.MAP, index)
            self.sim.process(
                self._task_lifecycle(run), name=f"{self.spec.job_id}-m{index}"
            ).add_callback(reraise_failure)
        if self._slowstart_threshold() == 0:
            self._start_reduces()
        if self.ft.speculation is not None:
            self.sim.process(
                self._speculator_loop(self.ft.speculation),
                name=f"{self.spec.job_id}-speculator",
            ).add_callback(reraise_failure)
        return self.completion

    def add_completion_callback(self, callback: Callable[[JobResult], None]) -> None:
        """Call *callback* with the :class:`JobResult` when the job ends
        (the app master is the ``sim`` backend's job handle)."""
        self.completion.add_callback(lambda ev: callback(ev.value))

    def _slowstart_threshold(self) -> int:
        import math

        return math.ceil(self.spec.slowstart * self.dataflow.num_maps)

    def _make_run(self, task_type: TaskType, index: int) -> _TaskRun:
        task_id = (
            self.spec.map_task_id(index)
            if task_type is TaskType.MAP
            else self.spec.reduce_task_id(index)
        )
        run = _TaskRun(task_id, task_type, index)
        self._runs[str(task_id)] = run
        return run

    # ------------------------------------------------------------------
    # Task configuration
    # ------------------------------------------------------------------
    def _resolve_config(self, run: _TaskRun, attempt: _Attempt) -> Configuration:
        if attempt.config is not None:
            # Speculative backups reuse the primary's exact configuration
            # (consulting the provider again would pop a fresh sample).
            return attempt.config
        if attempt.tier >= 2:
            # The safe fallback: the job's base configuration, clamped.
            return enforce_dependencies(self.spec.base_config)
        if run.tier1_config is None:
            run.tier1_config = self.provider.task_config(self.spec, run.task_id)
        return run.tier1_config

    # ------------------------------------------------------------------
    # Attempt execution
    # ------------------------------------------------------------------
    def _spawn_attempt(
        self,
        run: _TaskRun,
        speculative: bool = False,
        tier: int = 1,
        config: Optional[Configuration] = None,
        avoid_nodes: Tuple[int, ...] = (),
        migration: bool = False,
    ) -> _Attempt:
        run.attempt_counter += 1
        attempt = _Attempt(
            run.attempt_counter, speculative, tier,
            config=config, avoid_nodes=avoid_nodes, migration=migration,
        )
        run.running.append(attempt)
        attempt.runner = self.sim.process(
            self._attempt_runner(run, attempt),
            name=f"{run.task_id}-a{attempt.number}",
        )
        # Nothing yields on runner processes, so a bug in the rollback
        # path would otherwise vanish silently and hang the job: the
        # attempt never settles and the lifecycle waits forever.  Crash
        # the simulation loudly instead.
        attempt.runner.add_callback(reraise_failure)
        return attempt

    def _attempt_runner(
        self, run: _TaskRun, attempt: _Attempt
    ) -> Generator[Event, object, None]:
        try:
            container = yield from self._acquire(run, attempt)
            stats = yield from self._launch(run, attempt, container)
        except Interrupt as interrupt:
            stats = self._rollback(run, attempt, interrupt.cause)
        self._settle(run, attempt, stats)

    def _acquire(
        self, run: _TaskRun, attempt: _Attempt
    ) -> Generator[Event, object, Container]:
        """Admission, token, config, headroom, then the container grant."""
        ttype = run.task_type
        tokens = self._request_tokens[ttype]
        if not attempt.speculative:
            attempt.wave = yield attempt.enter(
                _Stage.ADMISSION, self.gate.admit(ttype, self.sim)
            )
            yield attempt.enter(_Stage.TOKEN, tokens.acquire())
        config = attempt.config = self._resolve_config(run, attempt)
        if ttype is TaskType.MAP:
            resource = Resource.of_mb(
                int(config[P.MAP_MEMORY_MB]), int(config[P.MAP_CPU_VCORES])
            )
            preferred = tuple(
                loc.node_id for loc in self._input_file.blocks[run.index].locations
            )
            priority = Priority.MAP
        else:
            resource = Resource.of_mb(
                int(config[P.REDUCE_MEMORY_MB]), int(config[P.REDUCE_CPU_VCORES])
            )
            preferred = ()
            priority = Priority.REDUCE
            attempt.stage, attempt.pending = _Stage.HEADROOM, None
            yield from self._await_reduce_headroom(resource.memory_bytes)
        attempt.request = ContainerRequest(
            app_id=self.spec.job_id,
            resource=resource,
            priority=priority,
            preferred_nodes=preferred,
            blacklisted_nodes=tuple(sorted(self._blacklisted_nodes | set(attempt.avoid_nodes))),
            # Attempt-scoped kill prefix (trailing dot so "a1" never
            # matches an "a10" label): killing this container cancels
            # only this attempt's flows, not a live sibling's.
            tag=f"{run.task_id}.a{attempt.number}.",
        )
        container = yield attempt.enter(_Stage.GRANT, self.rm.allocate(attempt.request))
        attempt.container = container
        if not attempt.speculative:
            tokens.release()
            # The provider may hand the task fresher values than those
            # that sized the container request.
            attempt.config = self.provider.task_launch_config(self.spec, run.task_id, config)
        return container

    def _launch(
        self, run: _TaskRun, attempt: _Attempt, container: Container
    ) -> Generator[Event, object, TaskStats]:
        """Run the task in its granted container; return its stats."""
        nm = self.node_managers[container.node.node_id]
        if container.node.state is not NodeState.ACTIVE:
            # The node was lost, left, or started draining while the
            # grant was in flight.
            return self._synthesize_failure(
                run, attempt, "node_lost", f"{container.node.hostname} lost before launch"
            )
        if run.task_type is TaskType.MAP:
            task_gen = run_map_task(
                self.ctx, run.index, self._input_file.blocks[run.index],
                container, attempt.config, attempt.number, attempt.wave,
            )
        else:
            task_gen = run_reduce_task(
                self.ctx, run.index, container, attempt.config,
                attempt.number, attempt.wave,
            )
        process = nm.launch(container, task_gen)
        self.progress.start(
            run.task_id, attempt.number, run.task_type, container.node.node_id, self.sim.now
        )
        return (yield attempt.enter(_Stage.RUNNING, process))

    def _rollback(self, run: _TaskRun, attempt: _Attempt, cause: object) -> TaskStats:
        """Undo what an attempt interrupted at ``attempt.stage`` holds.

        A pending event that was already granted but not yet delivered
        counts as held, so it is released rather than withdrawn.
        """
        ttype, stage, pending = run.task_type, attempt.stage, attempt.pending
        tokens = self._request_tokens[ttype]
        granted = pending is not None and (pending.scheduled or pending.triggered)
        if stage is _Stage.ADMISSION:
            # A granted admission holds nothing: gates refill on the
            # statistics that settling reports.
            if not granted:
                self.gate.retract(ttype, pending)
        elif stage is _Stage.TOKEN:
            if not tokens.cancel(pending) and granted:
                tokens.release()
        elif stage in (_Stage.HEADROOM, _Stage.GRANT) and not attempt.speculative:
            tokens.release()
        if stage is _Stage.GRANT:
            if granted:
                attempt.container = pending.value  # granted, undelivered
            else:
                self.rm.cancel(attempt.request)
        kind = getattr(cause, "kind", "") or "preempted"
        detail = getattr(cause, "detail", "") or str(cause)
        return self._synthesize_failure(run, attempt, kind, detail)

    def _settle(self, run: _TaskRun, attempt: _Attempt, stats: TaskStats) -> None:
        """Release what the attempt holds, arbitrate, record, and report."""
        ttype = run.task_type
        if attempt.container is not None:
            self.rm.release_container(attempt.container)
        if ttype is TaskType.REDUCE and attempt.stage > _Stage.HEADROOM:
            self._reduce_mem_outstanding -= attempt.request.resource.memory_bytes
        if attempt.stage is _Stage.RUNNING:
            self.progress.finish(run.task_id, attempt.number)
        if not stats.failed and run.winner is not None:
            # Photo-finish: another attempt committed first this instant.
            stats.failed = True
            stats.failure_kind = "speculation"
            stats.failure_reason = "superseded by a faster attempt"
        if attempt.speculative:
            stats.speculative = True
        if not stats.failed:
            run.winner = stats
            self._completed_durations[ttype].append(stats.duration)
            self._kill_losers(run, attempt)
        else:
            self._cleanup_attempt_output(run, attempt)
            self._note_attempt_failure(stats)
        tel = self._telemetry("task")
        if tel is not None:
            container_id = (
                attempt.container.container_id if attempt.container is not None else -1
            )
            tel.emit(
                AttemptSpan(
                    time=stats.end_time,
                    name=f"{ttype.value}.attempt",
                    start=stats.start_time,
                    node_id=stats.node_id,
                    track=f"container-{container_id}" if container_id >= 0 else "am",
                    job_id=self.spec.job_id,
                    task=str(run.task_id),
                    attempt=attempt.number,
                    failed=stats.failed,
                    speculative=stats.speculative,
                )
            )
        self._record(stats)
        self._poke_headroom()
        attempt.stage = _Stage.SETTLED
        run.running.remove(attempt)
        run.inbox.append((attempt, stats))
        if run.waiter is not None and not run.waiter.triggered:
            waiter, run.waiter = run.waiter, None
            waiter.succeed()

    def _synthesize_failure(
        self, run: _TaskRun, attempt: _Attempt, kind: str, detail: str
    ) -> TaskStats:
        """Stats for an attempt that never got to report its own."""
        container = attempt.container
        entry = self.progress.get(run.task_id, attempt.number)
        return _lost_attempt_stats(
            run, self.sim.now,
            node_id=container.node.node_id if container else -1,
            attempt=attempt.number,
            config=attempt.config.as_dict() if attempt.config is not None else {},
            start_time=entry.start_time if entry is not None else self.sim.now,
            container_memory_bytes=container.memory_bytes if container else 0.0,
            failure_reason=detail,
            failure_kind=kind,
            speculative=attempt.speculative,
            wave=attempt.wave,
        )

    def _kill_attempt(self, attempt: _Attempt, reason: KillReason) -> None:
        """Kill the container of a running attempt, else interrupt its wait."""
        if attempt.stage is _Stage.RUNNING:
            nm = self.node_managers[attempt.container.node.node_id]
            nm.kill_container(attempt.container, reason)
        elif not attempt.settled:
            attempt.runner.interrupt(reason)

    def _kill_losers(self, run: _TaskRun, winner: _Attempt) -> None:
        for other in list(run.running):
            if other is winner:
                continue
            self._kill_attempt(
                other,
                KillReason(
                    "speculation",
                    f"attempt {winner.number} of {run.task_id} finished first",
                ),
            )

    def _cleanup_attempt_output(self, run: _TaskRun, attempt: _Attempt) -> None:
        """Sweep a failed/killed attempt's partial HDFS output."""
        if run.task_type is TaskType.REDUCE:
            self.hdfs.delete_prefix(
                attempt_output_dir(self.spec.output_path, run.task_id, attempt.number)
            )

    def _note_attempt_failure(self, stats: TaskStats) -> None:
        """Count environmental failures per node; blacklist repeat offenders.

        Config-induced OOMs are the configuration's fault, not the
        node's, so they never contribute (and fault-free tuning runs stay
        byte-identical to pre-blacklist behaviour).
        """
        if stats.failure_kind not in ("preempted", "node_lost", "fetch_failure"):
            return
        if stats.node_id < 0:
            return
        count = self._node_failures.get(stats.node_id, 0) + 1
        self._node_failures[stats.node_id] = count
        if count >= BLACKLIST_THRESHOLD:
            newly = stats.node_id not in self._blacklisted_nodes
            self._blacklisted_nodes.add(stats.node_id)
            tel = self._telemetry("yarn")
            if newly and tel is not None:
                tel.emit(
                    NodeBlacklisted(
                        time=self.sim.now,
                        node_id=stats.node_id,
                        job_id=self.spec.job_id,
                        failures=count,
                    )
                )

    @property
    def blacklisted_nodes(self) -> Set[int]:
        return set(self._blacklisted_nodes)

    # ------------------------------------------------------------------
    # Fetch-failure aggregation (too many fetch failures => re-run map)
    # ------------------------------------------------------------------
    def _on_fetch_failure_report(
        self, map_index: int, src_node_id: int, reporter: str
    ) -> None:
        """One reducer exhausted its fetch retries against a map output.

        Reports are counted per map output (every exhausted retry cycle
        counts, so even a lone reducer eventually crosses the threshold
        and the job cannot hang on a single stuck source); past the
        threshold the output is declared lost and the map re-executes.
        """
        if not self.catalog.has_output(map_index):
            return  # already retracted; the re-run is in flight
        run = self._runs.get(str(self.spec.map_task_id(map_index)))
        if run is None or run.permanent:
            return
        count = self._fetch_report_counts.get(map_index, 0) + 1
        self._fetch_report_counts[map_index] = count
        reporters = self._fetch_reporters.setdefault(map_index, set())
        reporters.add(reporter)
        tel = self.sim.telemetry
        if tel is not None:
            tel.increment("shuffle.fetch_failure_reports")
            if tel.wants("yarn"):
                tel.emit(
                    FetchFailureReport(
                        time=self.sim.now,
                        job_id=self.spec.job_id,
                        map_index=map_index,
                        src_node_id=src_node_id,
                        reporter=reporter,
                        distinct_reporters=len(reporters),
                    )
                )
        if count >= max(1, min(FETCH_FAILURE_THRESHOLD, self.dataflow.num_reducers)):
            self._declare_map_output_lost(map_index, src_node_id, count)

    def _declare_map_output_lost(
        self, map_index: int, src_node_id: int, reports: int
    ) -> None:
        """Retract a map output and re-execute the map that produced it."""
        run = self._runs.get(str(self.spec.map_task_id(map_index)))
        if run is None or run.permanent:
            return
        if not self.catalog.mark_lost(map_index):
            return
        self._fetch_report_counts.pop(map_index, None)
        self._fetch_reporters.pop(map_index, None)
        tel = self.sim.telemetry
        if tel is not None:
            tel.increment("yarn.map_outputs_lost")
            if tel.wants("yarn"):
                tel.emit(
                    MapOutputLost(
                        time=self.sim.now,
                        job_id=self.spec.job_id,
                        map_index=map_index,
                        src_node_id=src_node_id,
                        reports=reports,
                    )
                )
        self._pending_loss[str(run.task_id)] = (map_index, src_node_id, reports)
        if not run.done:
            # Attempts (e.g. a speculative copy) are still settling; the
            # lifecycle charges the loss once they have.
            run.relaunch_on_settle = True
            return
        # The lifecycle already finished: rewind its completion
        # accounting and restart it around a fresh attempt.
        run.done = False
        self._lifecycles_done -= 1
        self._map_lifecycles_done -= 1
        self._completed_maps -= 1
        self._charge_output_loss(run)
        if run.permanent:
            run.done = True
            self._finalize_run(run)
            return
        self.sim.process(
            self._task_lifecycle(run, spawn_first=False),
            name=f"{self.spec.job_id}-m{run.index}-redo",
        ).add_callback(reraise_failure)

    def _charge_output_loss(self, run: _TaskRun) -> None:
        """Book a lost map output against the env-retry budget and respawn.

        The synthesized stats record carries ``fetch_failure`` (an
        environmental kind: the node, not the config, is to blame) and
        is flagged speculative so the tuner's wave accounting -- which
        already consumed the original successful attempt -- skips it.
        """
        map_index, src_node_id, reports = self._pending_loss.pop(
            str(run.task_id), (run.index, -1, 0)
        )
        winner, run.winner = run.winner, None
        run.env_failures += 1
        stats = _lost_attempt_stats(
            run, self.sim.now,
            node_id=src_node_id,
            attempt=winner.attempt if winner is not None else run.attempt_counter,
            config=dict(winner.config) if winner is not None else {},
            start_time=self.sim.now,
            container_memory_bytes=0.0,
            failure_reason=(
                f"map output {map_index} lost after {reports} fetch-failure report(s)"
            ),
            failure_kind="fetch_failure",
            speculative=True,
            wave=winner.wave if winner is not None else -1,
        )
        self._record(stats)
        self._note_attempt_failure(stats)
        if run.env_failures > MAX_ENV_RETRIES:
            run.permanent = True
            return
        # Repeated environmental losses escalate to the safe fallback,
        # mirroring the kill/node-loss retry path.
        tier = 1 if run.env_failures < 2 else 2
        avoid = (src_node_id,) if src_node_id >= 0 else ()
        self._spawn_attempt(run, tier=tier, avoid_nodes=avoid)

    # ------------------------------------------------------------------
    # Task lifecycles (retry arbitration)
    # ------------------------------------------------------------------
    def _task_lifecycle(
        self, run: _TaskRun, spawn_first: bool = True
    ) -> Generator[Event, object, None]:
        if spawn_first:
            self._spawn_attempt(run, speculative=False)
        while True:
            while not run.inbox:
                ev = self.sim.event()
                run.waiter = ev
                yield ev
            attempt, stats = run.inbox.pop(0)
            if stats.failed and run.winner is None and not run.permanent:
                self._handle_failure(run, attempt, stats)
            if run.relaunch_on_settle and not run.running:
                # The map output was declared lost while attempts were
                # still settling; now that they have, charge the loss
                # and re-execute instead of finishing.
                run.relaunch_on_settle = False
                if not run.permanent:
                    self._charge_output_loss(run)
                    if not run.permanent:
                        continue
            if (run.winner is not None or run.permanent) and not run.running:
                break
        run.done = True
        self._finalize_run(run)

    def _handle_failure(
        self, run: _TaskRun, attempt: _Attempt, stats: TaskStats
    ) -> None:
        if attempt.speculative:
            if (
                attempt.migration
                and not run.running
                and run.winner is None
                and not run.permanent
            ):
                # The migration replacement was the task's only live
                # attempt (the doomed primary already settled when the
                # grace window closed).  Fall through and retry like a
                # primary failure so the task cannot strand.
                pass
            else:
                # A lost backup never triggers retries; the primary's
                # fate decides the task.  (If the primary is also gone,
                # its own settlement drives the policy below.)
                return
        if stats.failure_kind in ENVIRONMENTAL_KINDS:
            if any(a.migration for a in run.running):
                # A grace-window migration already covers this task:
                # the doomed primary's death needs no crash-style
                # re-execution (and burns no environmental budget).
                return
            run.env_failures += 1
            if run.env_failures > MAX_ENV_RETRIES:
                run.permanent = True
                return
            # Re-execute.  Repeated environmental losses escalate to the
            # safe fallback configuration as a precaution.
            tier = attempt.tier if run.env_failures < 2 else max(attempt.tier, 2)
            config = attempt.config if tier == attempt.tier else None
            self._emit_retry(run, attempt, stats)
            self._spawn_attempt(run, tier=tier, config=config)
        else:
            # Config-induced (OOM): climb the attempt ladder toward the
            # safe fallback; exhausting it fails the task permanently.
            run.config_failures += 1
            if run.config_failures >= MAX_TASK_ATTEMPTS:
                run.permanent = True
                return
            self._emit_retry(run, attempt, stats)
            self._spawn_attempt(run, tier=attempt.tier + 1)

    def _emit_retry(self, run: _TaskRun, attempt: _Attempt, stats: TaskStats) -> None:
        tel = self._telemetry("yarn")
        if tel is not None:
            tel.emit(
                AttemptRetry(
                    time=self.sim.now,
                    job_id=self.spec.job_id,
                    task=str(run.task_id),
                    attempt=attempt.number,
                    next_attempt=run.attempt_counter + 1,
                    failure_kind=stats.failure_kind,
                    reason=stats.failure_reason,
                )
            )
            tel.increment("yarn.attempt_retries")

    def _finalize_run(self, run: _TaskRun) -> None:
        failed = run.winner is None
        if run.task_type is TaskType.MAP:
            self._map_lifecycles_done += 1
            if failed:
                self._permanent_failures += 1
                # Reducers must not wait forever for this map's output.
                self.catalog.mark_all_maps_done()
            else:
                self._completed_maps += 1
            if not self._reduces_started and (
                self._completed_maps >= self._slowstart_threshold()
                # Every map lifecycle has ended (some permanently failed):
                # slowstart can never be met, so let the reducers drain
                # what exists rather than deadlocking the job.
                or self._map_lifecycles_done >= self.dataflow.num_maps
            ):
                self._start_reduces()
        elif failed:
            self._permanent_failures += 1
        self._lifecycle_finished()

    # ------------------------------------------------------------------
    # Reduce tasks
    # ------------------------------------------------------------------
    def _start_reduces(self) -> None:
        if self._reduces_started:
            return
        self._reduces_started = True
        for index in range(self.dataflow.num_reducers):
            run = self._make_run(TaskType.REDUCE, index)
            self.sim.process(
                self._task_lifecycle(run), name=f"{self.spec.job_id}-r{index}"
            ).add_callback(reraise_failure)

    def _await_reduce_headroom(
        self, memory_bytes: int
    ) -> Generator[Event, object, None]:
        """Reduce ramp-up: cap reducers' memory share while maps remain.

        A blocked reducer parks once; :meth:`_recheck_headroom` resumes
        it when it fits.
        """
        limit = REDUCE_RAMPUP_LIMIT * self.cluster.total_yarn_memory
        if self._headroom_blocked(memory_bytes, limit):
            ev = self.sim.event()
            self._headroom_waiters.append((ev, memory_bytes, limit))
            yield ev
        self._reduce_mem_outstanding += memory_bytes

    def _headroom_blocked(self, memory_bytes: int, limit: float) -> bool:
        return (
            self._maps_remaining() > 0
            and self._reduce_mem_outstanding + memory_bytes > limit
        )

    def _maps_remaining(self) -> int:
        return self.dataflow.num_maps - self._completed_maps

    def _poke_headroom(self) -> None:
        """Recheck every parked reducer in one event at this instant."""
        if not self._headroom_waiters:
            return
        batch, self._headroom_waiters = self._headroom_waiters, []
        recheck = self.sim.event()
        recheck.callbacks.append(lambda _ev: self._recheck_headroom(batch))
        recheck.succeed()

    def _recheck_headroom(self, batch: List[Tuple[Event, int, float]]) -> None:
        """Resume the parked reducers that now fit, in park order.

        This stands in for one wakeup event per parked reducer.  Those
        held consecutive sequence numbers at one instant, so nothing
        else ran between them; the recheck holds the first of them and
        runs the same tests in the same order.  A resumed reducer
        charges its memory and asks for its container (``fire`` runs
        it in place) before the next entry is tested.
        """
        for entry in batch:
            ev, memory_bytes, limit = entry
            if not ev.callbacks:
                continue  # interrupted while parked
            if self._headroom_blocked(memory_bytes, limit):
                self._headroom_waiters.append(entry)
            else:
                ev.fire()

    # ------------------------------------------------------------------
    # Speculative execution (LATE-style)
    # ------------------------------------------------------------------
    def _speculator_loop(
        self, settings: SpeculationSettings
    ) -> Generator[Event, object, None]:
        while not self.completion.triggered:
            yield self.sim.timeout(settings.interval)
            if self.completion.triggered:
                return
            self._speculate_once(settings)

    def _speculate_once(self, settings: SpeculationSettings) -> None:
        now = self.sim.now
        backups_running = sum(
            1
            for run in self._runs.values()
            for a in run.running
            if a.speculative
        )
        budget = MAX_CONCURRENT_BACKUPS - backups_running
        if budget <= 0:
            return
        candidates: List[Tuple[float, str, _TaskRun, _Attempt]] = []
        for key in sorted(self._runs):
            run = self._runs[key]
            if run.done or run.winner is not None or run.permanent:
                continue
            if len(run.running) != 1:
                continue  # at most one backup, and only for lone attempts
            primary = run.running[0]
            if primary.speculative or primary.stage is not _Stage.RUNNING:
                continue
            durations = self._completed_durations[run.task_type]
            if len(durations) < settings.min_completed:
                continue
            mean_duration = sum(durations) / len(durations)
            entry = self.progress.get(run.task_id, primary.number)
            if entry is None:
                continue
            elapsed = now - entry.start_time
            if elapsed < settings.slowness_factor * mean_duration:
                continue
            remaining = entry.estimated_remaining(now)
            # Only worth a backup if the straggler's estimated finish is
            # beyond what a fresh attempt would need.
            if remaining < 0.5 * mean_duration:
                continue
            rank = remaining if remaining != float("inf") else 1e18
            candidates.append((rank, key, run, primary))
        # LATE: back up the attempts with the longest estimated remaining
        # time first.
        candidates.sort(key=lambda entry: (-entry[0], entry[1]))
        for _rank, _key, run, primary in candidates[:budget]:
            avoid = ()
            if primary.container is not None:
                avoid = (primary.container.node.node_id,)
            self._launch_backup(run, primary, avoid, "yarn.speculative_launches")

    def _launch_backup(
        self,
        run: _TaskRun,
        primary: _Attempt,
        avoid_nodes: Tuple[int, ...],
        counter: str,
        migration: bool = False,
    ) -> None:
        """Start a copy of *primary* with its tier and exact configuration."""
        self.counters.increment(Counter.SPECULATIVE_TASK_ATTEMPTS)
        tel = self._telemetry("yarn")
        if tel is not None:
            tel.emit(
                SpeculativeLaunch(
                    time=self.sim.now,
                    job_id=self.spec.job_id,
                    task=str(run.task_id),
                    attempt=run.attempt_counter + 1,
                )
            )
            tel.increment(counter)
        self._spawn_attempt(
            run, speculative=True, tier=primary.tier, config=primary.config,
            avoid_nodes=avoid_nodes, migration=migration,
        )

    # ------------------------------------------------------------------
    # Elastic churn: grace-window migration
    # ------------------------------------------------------------------
    def on_preempt_notice(self, node_id: int, deadline: float) -> None:
        """Proactively migrate attempts doomed by a spot preemption.

        Called by :class:`~repro.faults.elastic.ElasticCluster` when a
        preemption *notice* lands on *node_id*; the hard kill follows at
        *deadline*.  Every task whose only live attempt runs on the
        doomed node gets a replacement launched elsewhere right away --
        a checkpoint-via-speculation restart that reuses the primary's
        exact configuration, rides outside the wave gate like any
        backup, and settles through the usual first-finisher-wins
        arbitration.  This is distinct from crash re-execution: the
        replacement starts *before* the kill, so the grace window (not
        a liveness expiry) bounds the lost work.
        """
        del deadline  # the kill schedule is the ElasticCluster's business
        if self.completion.triggered:
            return
        for key in sorted(self._runs):
            run = self._runs[key]
            if run.done or run.winner is not None or run.permanent:
                continue
            doomed = [
                a for a in run.running
                if a.container is not None and a.container.node.node_id == node_id
            ]
            if not doomed:
                continue
            if len(doomed) < len(run.running):
                # A live copy already exists (or is pending placement)
                # off the doomed node; the scheduler no longer places on
                # draining nodes, so that copy covers the task.
                continue
            primary = doomed[0]
            self.preempt_migrations += 1
            self._launch_backup(
                run, primary, (node_id,), "elastic.preempt_migrations", migration=True
            )

    # ------------------------------------------------------------------
    # Completion bookkeeping
    # ------------------------------------------------------------------
    def _record(self, stats: TaskStats) -> None:
        self.task_stats.append(stats)
        # The monitor feed: the central monitor subscribes to ``stats``
        # and picks this up off the bus (SimCluster wiring); direct
        # ``stats_listeners`` remain for side-effecting consumers (the
        # tuner) and standalone use.
        tel = self._telemetry("stats")
        if tel is not None:
            tel.emit(TaskStatsRecorded(time=stats.end_time, stats=stats))
        c = self.counters
        if stats.failed:
            if stats.failure_kind in ENVIRONMENTAL_KINDS:
                c.increment(Counter.KILLED_TASK_ATTEMPTS)
            else:
                c.increment(Counter.FAILED_TASK_ATTEMPTS)
        else:
            if stats.task_type is TaskType.MAP:
                c.increment(Counter.MAP_OUTPUT_RECORDS, stats.map_output_records)
                c.increment(Counter.MAP_OUTPUT_BYTES, stats.map_output_bytes)
                c.increment(Counter.COMBINE_OUTPUT_RECORDS, stats.combine_output_records)
            else:
                c.increment(Counter.SHUFFLED_BYTES, stats.shuffled_bytes)
                c.increment(Counter.REDUCE_INPUT_RECORDS, stats.reduce_input_records)
            c.increment(Counter.SPILLED_RECORDS, stats.spilled_records)
            c.increment(Counter.CPU_MILLISECONDS, stats.cpu_seconds * 1000.0)
        for listener in self.stats_listeners:
            listener(stats)

    def _lifecycle_finished(self) -> None:
        self._lifecycles_done += 1
        total = self.dataflow.num_maps + self.dataflow.num_reducers
        if self._lifecycles_done >= total:
            self.rm.unregister_app(self.spec.job_id)
            reasons: Dict[str, int] = {}
            for s in self.task_stats:
                if s.failed:
                    kind = s.failure_kind or "failed"
                    reasons[kind] = reasons.get(kind, 0) + 1
            result = JobResult(
                job_id=self.spec.job_id,
                succeeded=self._permanent_failures == 0,
                start_time=self._start_time,
                end_time=self.sim.now,
                counters=self.counters,
                task_stats=self.task_stats,
                failure_reasons=reasons,
            )
            tel = self._telemetry("job")
            if tel is not None:
                tel.emit(
                    JobFinished(
                        time=self.sim.now,
                        name=self.spec.name,
                        start=self._start_time,
                        track="jobs",
                        job_id=self.spec.job_id,
                        succeeded=result.succeeded,
                    )
                )
            self.completion.succeed(result)
