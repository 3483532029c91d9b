"""A real local-process MapReduce runtime behind the Backend protocol.

:class:`LocalProcessBackend` executes mapper/reducer task bodies in a
``ProcessPoolExecutor`` over local files -- real sorting, real spills,
real merges, real shuffle reads -- and feeds real wall-clock
:class:`~repro.monitor.statistics.TaskStats` into the same
:class:`~repro.monitor.central_monitor.CentralMonitor` and
:class:`~repro.core.tuner.OnlineTuner` the simulator uses.  The paper's
loop closes here: the gray-box hill climber tunes waves of *actual*
task executions.

The tuner's :class:`~repro.yarn.app_master.LaunchGate` contract is
event-based (``admit`` returns a simulator :class:`Event` whose
``succeed`` *schedules* the firing), so the backend keeps a private
:class:`~repro.sim.engine.Simulator` purely as a deterministic callback
pump: after every gate interaction it drains the calendar
(``while sim.step(): ...``) so admissions granted by the tuner fire
before the next scheduling decision.

Determinism caveats (vs the simulator backend): task *outputs*,
counters, and spill counts are bit-deterministic for a fixed corpus and
configuration, but durations, CPU seconds, and therefore tuner *costs*
carry real wall-clock noise -- tests pin outputs exactly and bound
timing-derived quantities instead.  See ``docs/backends.md``.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.backends.local.corpus import corpus_splits
from repro.backends.local.worker import (
    KB_SCALE,
    LOCAL_WORKLOADS,
    MapTaskSpec,
    ReduceTaskSpec,
    TaskKnobs,
    TaskReport,
    run_map_task,
    run_reduce_task,
)
from repro.core import parameters as P
from repro.core.configuration import Configuration
from repro.mapreduce.counters import Counter, Counters
from repro.mapreduce.jobspec import JobSpec, TaskId, TaskType
from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.statistics import NodeStats, TaskStats
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.telemetry import TelemetryBus
from repro.telemetry.events import NodeSampled, TaskStatsRecorded, WorkerHang
from repro.util.backoff import BackoffPolicy, decorrelated_jitter_delays
from repro.yarn.app_master import ConfigProvider, JobResult, LaunchGate

#: One retry per task (the Hadoop default is 4; small local jobs need
#: just enough budget to recover an infeasible sampled config).
MAX_ATTEMPTS = 2


@dataclass(frozen=True)
class WatchdogSettings:
    """Wall-clock liveness policy for the hung-worker watchdog.

    A worker process that neither finishes nor dies -- stuck on a
    deadlocked pipe, a runaway loop, an NFS stall -- would otherwise
    wedge the whole phase: ``futures_wait`` has no deadline of its own.
    The watchdog polls the in-flight futures, and any attempt alive past
    its phase deadline is SIGKILLed (taking the shared pool's workers
    with it -- the same blast radius a node loss has in the simulator);
    the hung attempt retries as failure kind ``"hang"``, collateral
    attempts retry as ``"env"``, both within the normal
    :data:`MAX_ATTEMPTS` budget.  A decorrelated-jitter pause
    (:func:`repro.util.backoff.decorrelated_jitter_delays`) spaces out
    pool rebuilds when hangs repeat.
    """

    #: Wall-clock seconds one map attempt may run before it is hung.
    map_deadline: float = 120.0
    #: Reducers merge+fetch, so they get a longer leash.
    reduce_deadline: float = 180.0
    #: How often the watchdog wakes to check deadlines.
    poll_interval: float = 1.0
    #: Pool-rebuild pause schedule (decorrelated jitter over this).
    backoff: BackoffPolicy = BackoffPolicy(base=0.05, cap=0.5)

    def __post_init__(self) -> None:
        if self.map_deadline <= 0 or self.reduce_deadline <= 0:
            raise ValueError("watchdog deadlines must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    def deadline_for(self, task_type: TaskType) -> float:
        return (
            self.map_deadline
            if task_type is TaskType.MAP
            else self.reduce_deadline
        )


def knobs_from_config(config: Configuration, task_type: TaskType) -> TaskKnobs:
    """Decode a Table-2 :class:`Configuration` into local task knobs.

    The "MB" quantities scale to KB (:data:`KB_SCALE`) so toy corpora
    hit the same spill/merge/OOM boundaries real splits do; percents and
    counts map one to one.  See ``docs/backends.md`` for the full table.
    """
    if task_type is TaskType.MAP:
        memory_mb = config[P.MAP_MEMORY_MB]
        cores = config[P.MAP_CPU_VCORES]
    else:
        memory_mb = config[P.REDUCE_MEMORY_MB]
        cores = config[P.REDUCE_CPU_VCORES]
    return TaskKnobs(
        sort_buffer_bytes=int(config[P.IO_SORT_MB]) * KB_SCALE,
        spill_threshold=float(config[P.SORT_SPILL_PERCENT]),
        merge_factor=max(2, int(config[P.IO_SORT_FACTOR])),
        fetch_parallelism=max(1, int(config[P.SHUFFLE_PARALLELCOPIES])),
        inmem_merge_records=max(0, int(config[P.MERGE_INMEM_THRESHOLD])),
        container_memory_bytes=int(memory_mb) * KB_SCALE,
        allocated_cores=float(cores),
    )


class LocalJobHandle:
    """One job submitted to the local backend."""

    def __init__(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider],
        gate: LaunchGate,
    ) -> None:
        self.spec = spec
        self.config_provider = config_provider
        self.gate = gate
        self.stats_listeners: List[Callable[[TaskStats], None]] = []
        self.result: Optional[JobResult] = None
        self._completion_callbacks: List[Callable[[JobResult], None]] = []

    def add_completion_callback(
        self, callback: Callable[[JobResult], None]
    ) -> None:
        if self.result is not None:
            callback(self.result)
        else:
            self._completion_callbacks.append(callback)

    def _complete(self, result: JobResult) -> None:
        self.result = result
        for callback in self._completion_callbacks:
            callback(result)
        self._completion_callbacks = []


class LocalProcessBackend:
    """Execute MapReduce jobs as real local worker processes.

    Parameters
    ----------
    workspace:
        Scratch directory for job state (map segments, reduce output,
        attempt temporaries).  ``None`` creates a private temp dir that
        :meth:`close` removes.
    slots:
        Concurrent worker processes ("containers").  Defaults to a
        small multiple of the CPU count, capped at 4 so test runs stay
        polite.
    seed:
        Recorded for provenance; the runtime itself draws no random
        numbers for task execution (outputs are corpus + config
        determined).  The watchdog's jittered pool-rebuild pauses draw
        from a stream derived from it.
    watchdog:
        Hung-worker liveness policy.  The defaults are far above any
        healthy task's runtime, so the watchdog cannot perturb a
        well-behaved run.
    """

    name = "local"

    def __init__(
        self,
        workspace: Optional[str] = None,
        slots: Optional[int] = None,
        seed: int = 0,
        watchdog: WatchdogSettings = WatchdogSettings(),
    ) -> None:
        self.seed = seed
        self.watchdog = watchdog
        self._hang_delays: Iterator[float] = decorrelated_jitter_delays(
            watchdog.backoff,
            np.random.default_rng(derive_seed(seed, "watchdog", "backoff")),
        )
        if workspace is None:
            self.workspace = tempfile.mkdtemp(prefix="repro-local-")
            self._owns_workspace = True
        else:
            self.workspace = workspace
            os.makedirs(self.workspace, exist_ok=True)
            self._owns_workspace = False
        if slots is None:
            slots = max(2, min(4, os.cpu_count() or 2))
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        #: Private event pump for gate admissions (see module docstring).
        self.sim = Simulator()
        self._epoch = time.monotonic()
        self.telemetry = TelemetryBus(clock=self._now)
        self.sim.attach_telemetry(self.telemetry)
        #: The same monitor class the simulator feeds: task statistics
        #: off the bus's ``stats`` category, host samples by direct call.
        self.monitor = CentralMonitor(bus=self.telemetry)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._handles: List[LocalJobHandle] = []

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Wall-clock seconds since this backend was constructed."""
        return time.monotonic() - self._epoch

    def _pump(self) -> None:
        """Fire every pending gate/tuner callback on the event pump."""
        while self.sim.step():
            pass

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.slots)
        return self._pool

    def _kill_workers(self) -> None:
        """SIGKILL every live worker process of the current pool.

        This is the watchdog's hammer: a hung worker ignores polite
        shutdown by definition.  Killing the workers breaks the whole
        executor (every in-flight future resolves with
        ``BrokenProcessPool``); the caller rebuilds the pool lazily via
        :meth:`_ensure_pool`.
        """
        pool = self._pool
        if pool is None:
            return
        for pid in list(getattr(pool, "_processes", {}) or {}):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                pass

    def job_dir(self, spec: JobSpec) -> str:
        return os.path.join(self.workspace, "jobs", spec.job_id)

    def _sample_node(self, running: int) -> None:
        """Hand one host sample to the monitor; publish it for watchers.

        The local host is node 0; utilization is slot occupancy, the
        honest signal this backend has without per-process sampling.
        The ``node`` category gets the sample only when subscribed.
        """
        now = self._now()
        occupancy = min(1.0, running / self.slots)
        row = (0, now, occupancy, occupancy, running, 0.0, 0.0)
        self.monitor.ingest([row])
        if self.telemetry.wants("node"):
            self.telemetry.emit(NodeSampled(now, NodeStats(*row)))

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
    ) -> LocalJobHandle:
        """Register one job; execution is driven by :meth:`wait`."""
        if spec.workload.name.removesuffix("-local") not in LOCAL_WORKLOADS:
            raise ValueError(
                f"workload {spec.workload.name!r} has no local implementation; "
                f"want one of {sorted(LOCAL_WORKLOADS)}"
            )
        handle = LocalJobHandle(spec, config_provider, gate or LaunchGate())
        self._handles.append(handle)
        return handle

    def run_job(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
    ) -> JobResult:
        return self.wait(
            self.submit(spec, config_provider=config_provider, gate=gate)
        )

    def attach_tuner(self, tuner, spec: JobSpec) -> LocalJobHandle:
        """Wire an :class:`OnlineTuner` to a real job end to end."""
        if tuner.telemetry is None:
            tuner.telemetry = self.telemetry
        input_bytes = float(
            sum(os.path.getsize(p) for p in corpus_splits(spec.input_path))
        )
        provider, gate = tuner.attach_job(spec, input_bytes=input_bytes)
        handle = self.submit(spec, config_provider=provider, gate=gate)
        handle.stats_listeners.append(tuner.on_task_stats)
        handle.add_completion_callback(
            lambda result: tuner.finalize_job(spec.job_id, result)
        )
        return handle

    def wait(self, handle: LocalJobHandle) -> JobResult:
        if handle.result is not None:
            return handle.result
        job_dir = self.job_dir(handle.spec)
        try:
            result = self._execute(handle, job_dir)
        finally:
            # The commit sweep: successful attempts clean up after
            # themselves, but killed/OOM attempts leave temporaries --
            # exactly what the AM sweeps on HDFS.
            self._sweep_temporary(job_dir)
        handle._complete(result)
        return result

    def close(self) -> None:
        """Shut the worker pool down and remove owned scratch space."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        for handle in self._handles:
            self._sweep_temporary(self.job_dir(handle.spec))
        if self._owns_workspace:
            shutil.rmtree(self.workspace, ignore_errors=True)

    def __enter__(self) -> "LocalProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Temp hygiene
    # ------------------------------------------------------------------
    def _sweep_temporary(self, job_dir: str) -> None:
        shutil.rmtree(os.path.join(job_dir, "_temporary"), ignore_errors=True)

    def leaked_temporaries(self) -> List[str]:
        """Paths still under any ``_temporary`` directory (should be [])."""
        leaks: List[str] = []
        for root, _dirs, files in os.walk(self.workspace):
            if "_temporary" in root.split(os.sep):
                leaks.extend(os.path.join(root, name) for name in files)
        return sorted(leaks)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, handle: LocalJobHandle, job_dir: str) -> JobResult:
        spec = handle.spec
        splits = corpus_splits(spec.input_path)
        if not splits:
            raise ValueError(f"no input splits under {spec.input_path!r}")
        os.makedirs(job_dir, exist_ok=True)
        workload = spec.workload.name.removesuffix("-local")
        start_time = self._now()
        counters = Counters()
        task_stats: List[TaskStats] = []
        failure_reasons: Dict[str, int] = {}
        counters.increment(
            Counter.MAP_INPUT_BYTES, float(sum(os.path.getsize(p) for p in splits))
        )

        def build_map(index: int, attempt: int, knobs: TaskKnobs) -> MapTaskSpec:
            return MapTaskSpec(
                job_id=spec.job_id,
                index=index,
                attempt=attempt,
                input_path=splits[index],
                workload=workload,
                num_partitions=spec.num_reducers,
                job_dir=job_dir,
                knobs=knobs,
                epoch=self._epoch,
            )

        def build_reduce(index: int, attempt: int, knobs: TaskKnobs) -> ReduceTaskSpec:
            return ReduceTaskSpec(
                job_id=spec.job_id,
                partition=index,
                attempt=attempt,
                num_maps=len(splits),
                workload=workload,
                job_dir=job_dir,
                knobs=knobs,
                epoch=self._epoch,
            )

        map_ok = self._run_phase(
            handle, TaskType.MAP, len(splits), run_map_task, build_map,
            counters, task_stats, failure_reasons,
        )
        # Reducers launch once every map has committed.  (Slowstart
        # overlap is a simulator-only refinement for now; real shuffle
        # segments only exist after the map commit.)
        reduce_ok = map_ok and self._run_phase(
            handle, TaskType.REDUCE, spec.num_reducers, run_reduce_task,
            build_reduce, counters, task_stats, failure_reasons,
        )
        return JobResult(
            job_id=spec.job_id,
            succeeded=map_ok and reduce_ok,
            start_time=start_time,
            end_time=self._now(),
            counters=counters,
            task_stats=task_stats,
            failure_reasons=failure_reasons,
        )

    def _run_phase(
        self,
        handle: LocalJobHandle,
        task_type: TaskType,
        count: int,
        worker_fn: Callable,
        build_spec: Callable[[int, int, TaskKnobs], object],
        counters: Counters,
        task_stats: List[TaskStats],
        failure_reasons: Dict[str, int],
    ) -> bool:
        """Drive one task phase through the gate and the worker pool.

        Returns True when every task committed.  The gate's accounting
        contract is one admission per *attempt*: retries re-enter
        through :meth:`LaunchGate.admit`, and every admitted attempt
        reports exactly one :class:`TaskStats` (failed attempts report
        ``failed=True``), which keeps the tuner's starved-batch detector
        balanced.
        """
        spec = handle.spec
        gate = handle.gate
        provider = handle.config_provider
        self._ensure_pool()
        task_id_of = (
            spec.map_task_id if task_type is TaskType.MAP else spec.reduce_task_id
        )

        admitted: Deque[Tuple[int, int]] = deque()

        def request_admission(index: int) -> None:
            ev = gate.admit(task_type, self.sim)
            ev.add_callback(lambda e, i=index: admitted.append((i, e.value)))

        for index in range(count):
            request_admission(index)
        self._pump()

        running: Dict[object, Tuple[int, int, Configuration, TaskKnobs, float]] = {}
        attempts: Dict[int, int] = {i: 0 for i in range(count)}
        oom_retry: Dict[int, bool] = {}
        #: Indices awaiting their ``hang`` classification after a kill.
        hung_pending: set = set()
        completed = 0
        phase_ok = True

        while completed < count:
            while admitted and len(running) < self.slots:
                index, wave = admitted.popleft()
                if oom_retry.pop(index, False) or provider is None:
                    # Config-induced failure: re-run on the job's own
                    # base configuration (known feasible), mirroring the
                    # AM's config-retry ladder.
                    config = spec.base_config
                else:
                    config = provider.task_config(spec, task_id_of(index))
                knobs = knobs_from_config(config, task_type)
                future = self._ensure_pool().submit(
                    worker_fn, build_spec(index, attempts[index], knobs)
                )
                running[future] = (index, wave, config, knobs, self._now())
                self._sample_node(len(running))
            if not running:
                if admitted:
                    continue
                raise RuntimeError(
                    f"launch gate starved {spec.job_id} {task_type.value} phase: "
                    f"{completed}/{count} tasks done, none admitted or running"
                )
            done, _pending = futures_wait(
                running,
                timeout=self.watchdog.poll_interval,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                deadline = self.watchdog.deadline_for(task_type)
                overdue = sorted(
                    (state[0], state[4])
                    for state in running.values()
                    if self._now() - state[4] > deadline
                )
                if not overdue:
                    continue  # nobody finished, nobody hung: keep polling
                # A worker past its liveness deadline will never finish
                # on its own.  SIGKILL the pool (collateral in-flight
                # attempts die too -- the node-loss blast radius),
                # classify, pause with jitter, and let the retry ladder
                # re-admit survivors on a fresh pool.
                for index, started in overdue:
                    hung_pending.add(index)
                    if self.telemetry.wants("fault"):
                        self.telemetry.emit(
                            WorkerHang(
                                time=self._now(),
                                task=str(task_id_of(index)),
                                deadline=deadline,
                                attempt=attempts[index],
                            )
                        )
                    self.telemetry.increment("backend.worker_hangs")
                self._kill_workers()
                done, _pending = futures_wait(running)
                pool = self._pool
                if pool is not None:
                    pool.shutdown(wait=True, cancel_futures=True)
                    self._pool = None
                time.sleep(next(self._hang_delays))
            # Deterministic handling order regardless of completion order.
            for future in sorted(done, key=lambda f: running[f][0]):
                index, wave, config, knobs, _started = running.pop(future)
                attempts[index] += 1
                try:
                    report: TaskReport = future.result()
                except Exception as exc:
                    hung = index in hung_pending
                    hung_pending.discard(index)
                    report = TaskReport(
                        index=index,
                        attempt=attempts[index] - 1,
                        start_time=self._now(),
                        end_time=self._now(),
                        cpu_seconds=0.0,
                        working_set_bytes=0,
                        failed=True,
                        failure_kind="hang" if hung else "env",
                        failure_reason=(
                            "liveness deadline exceeded; SIGKILLed by watchdog"
                            if hung
                            else f"worker crashed: {exc!r}"
                        ),
                    )
                stats = self._to_task_stats(
                    task_id_of(index), task_type, report, config, knobs, wave
                )
                retry = report.failed and attempts[index] < MAX_ATTEMPTS
                if report.failed:
                    counters.increment(Counter.FAILED_TASK_ATTEMPTS)
                    kind = report.failure_kind or "unknown"
                    failure_reasons[kind] = failure_reasons.get(kind, 0) + 1
                    if report.failure_kind == "oom":
                        oom_retry[index] = True
                else:
                    self._accumulate(counters, task_type, report)
                task_stats.append(stats)
                # The stats stream: bus first (this backend's monitor
                # always subscribes, exporters may), then direct
                # listeners (the tuner) -- the app master's emission order.
                self.telemetry.emit(
                    TaskStatsRecorded(time=stats.end_time, stats=stats)
                )
                for listener in handle.stats_listeners:
                    listener(stats)
                self._pump()
                if retry:
                    request_admission(index)
                    self._pump()
                else:
                    if report.failed:
                        phase_ok = False
                    completed += 1
                self._sample_node(len(running))
        return phase_ok

    def _to_task_stats(
        self,
        task_id: TaskId,
        task_type: TaskType,
        report: TaskReport,
        config: Configuration,
        knobs: TaskKnobs,
        wave: int,
    ) -> TaskStats:
        is_map = task_type is TaskType.MAP
        return TaskStats(
            task_id=task_id,
            task_type=task_type,
            node_id=0,
            attempt=report.attempt,
            config=config.as_dict(),
            start_time=report.start_time,
            end_time=report.end_time,
            cpu_seconds=report.cpu_seconds,
            allocated_cores=knobs.allocated_cores,
            working_set_bytes=float(report.working_set_bytes),
            container_memory_bytes=float(knobs.container_memory_bytes),
            spilled_records=report.spilled_records,
            map_output_records=report.output_records if is_map else 0,
            map_output_bytes=float(report.output_bytes) if is_map else 0.0,
            combine_output_records=report.combine_output_records,
            shuffled_bytes=float(report.shuffled_bytes),
            reduce_input_records=report.reduce_input_records,
            failed=report.failed,
            failure_reason=report.failure_reason,
            failure_kind=report.failure_kind,
            wave=wave,
        )

    @staticmethod
    def _accumulate(
        counters: Counters, task_type: TaskType, report: TaskReport
    ) -> None:
        counters.increment(Counter.SPILLED_RECORDS, report.spilled_records)
        counters.increment(Counter.MERGE_PASSES, report.merge_passes)
        counters.increment(Counter.CPU_MILLISECONDS, report.cpu_seconds * 1000.0)
        if task_type is TaskType.MAP:
            counters.increment(Counter.MAP_OUTPUT_RECORDS, report.output_records)
            counters.increment(Counter.MAP_OUTPUT_BYTES, report.output_bytes)
            counters.increment(
                Counter.COMBINE_OUTPUT_RECORDS, report.combine_output_records
            )
        else:
            counters.increment(Counter.SHUFFLED_BYTES, report.shuffled_bytes)
            counters.increment(
                Counter.REDUCE_INPUT_RECORDS, report.reduce_input_records
            )
            counters.increment(Counter.REDUCE_OUTPUT_RECORDS, report.output_records)
            counters.increment(Counter.REDUCE_OUTPUT_BYTES, report.output_bytes)

    # ------------------------------------------------------------------
    # Output access (tests, drivers)
    # ------------------------------------------------------------------
    def read_output(self, spec: JobSpec) -> Dict[str, str]:
        """The committed reduce output of *spec* as one key->value dict."""
        out: Dict[str, str] = {}
        out_dir = os.path.join(self.job_dir(spec), "out")
        if not os.path.isdir(out_dir):
            return out
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                for line in fh:
                    key, _sep, value = line.rstrip("\n").partition("\t")
                    out[key] = value
        return out
