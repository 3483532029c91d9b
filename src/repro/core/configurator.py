"""The dynamic configurator: per-task configuration distribution.

Implements the Table-1 API (snake_case, with camelCase aliases matching
the paper's listing verbatim).  Resolution order for a launching task:

1. an explicit per-task override (``set_task_parameters``),
2. the next queued wave configuration for its task type (how the
   aggressive tuner feeds sampled configurations to "a task from the
   queued tasks list"),
3. the job-level configuration (``set_job_parameters``; how the
   conservative tuner steers future tasks),
4. the job's submitted base configuration.

Running tasks keep a *live* reference to their Configuration object;
``set_task_parameters`` on a running task hot-swaps category-3
parameters into it (:meth:`Configuration.hot_swap`), which the task
processes read at their next decision point -- the paper's "can be
changed on the fly and become effective immediately".  Every other
change derives a new configuration.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.core.configuration import Configuration, enforce_dependencies
from repro.core.parameters import PARAMETER_SPACE
from repro.mapreduce.jobspec import JobSpec, TaskId, TaskType

AssignmentListener = Callable[[str, TaskId, Configuration, object], None]


class DynamicConfigurator:
    """Centralized configuration distribution with task-level granularity."""

    def __init__(self) -> None:
        self._jobs: Dict[str, JobSpec] = {}
        self._job_config: Dict[str, Configuration] = {}
        self._task_overrides: Dict[str, Dict[str, Dict[str, float]]] = {}
        self._queues: Dict[Tuple[str, TaskType], Deque[Tuple[Configuration, object]]] = {}
        self._live: Dict[str, Configuration] = {}
        #: Tasks whose configuration is final at request time (sampled
        #: or explicitly overridden) and must not be refreshed at launch.
        self._pinned: set = set()
        #: Notified whenever a queued configuration is bound to a task.
        self.assignment_listeners: List[AssignmentListener] = []

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def register_job(self, spec: JobSpec) -> None:
        self._jobs[spec.job_id] = spec
        self._job_config[spec.job_id] = spec.base_config
        self._task_overrides.setdefault(spec.job_id, {})

    def job_config(self, job_id: str) -> Configuration:
        return self._job_config[job_id]

    # ------------------------------------------------------------------
    # Table 1 API
    # ------------------------------------------------------------------
    def get_configurable_job_parameters(self, job_id: str) -> List[str]:
        """Parameters settable for the job's current and future tasks."""
        self._require_job(job_id)
        return list(PARAMETER_SPACE.names)

    def get_configurable_task_parameters(self, job_id: str, task_id: TaskId) -> List[str]:
        """Parameters settable for one task.

        A *running* task only accepts category-3 (hot-swappable)
        parameters; a task not yet launched accepts everything.
        """
        self._require_job(job_id)
        if str(task_id) in self._live:
            return [s.name for s in PARAMETER_SPACE if s.hot_swappable]
        return list(PARAMETER_SPACE.names)

    def set_job_parameters(self, job_id: str, kv: Mapping[str, float]) -> int:
        """Update the job-level configuration; returns parameters applied."""
        self._require_job(job_id)
        self._job_config[job_id] = self._job_config[job_id].updated(kv)
        return len(kv)

    def set_task_parameters(
        self,
        job_id: str,
        kv: Mapping[str, float],
        task_id: Optional[TaskId] = None,
    ) -> int:
        """Set parameters for one task (or every task when *task_id* is None).

        For a running task, only hot-swappable parameters take effect
        immediately; the rest are recorded as the task's override (used
        if the attempt is retried).
        """
        self._require_job(job_id)
        if task_id is None:
            # "Sets the parameters for all the tasks associated with a job".
            applied = self.set_job_parameters(job_id, kv)
            for tid, live in list(self._live.items()):
                if tid.startswith(f"task_{job_id}_"):
                    live.hot_swap(kv)
            return applied
        tid = str(task_id)
        overrides = self._task_overrides[job_id].setdefault(tid, {})
        applied = 0
        for name, value in kv.items():
            overrides[name] = float(value)
            applied += 1
        live = self._live.get(tid)
        if live is not None:
            live.hot_swap(kv)
        return applied

    # camelCase aliases, exactly as Table 1 lists them.
    getConfigurableJobParameters = get_configurable_job_parameters
    getConfigurableTaskParameters = get_configurable_task_parameters
    setJobParameters = set_job_parameters
    setTaskParameters = set_task_parameters

    # ------------------------------------------------------------------
    # Wave queues (aggressive tuning)
    # ------------------------------------------------------------------
    def push_wave_configs(
        self,
        job_id: str,
        task_type: TaskType,
        configs: List[Tuple[Configuration, object]],
    ) -> None:
        """Queue sampled configurations for the next tasks of *task_type*."""
        self._require_job(job_id)
        queue = self._queues.setdefault((job_id, task_type), deque())
        queue.extend(configs)

    def queued_count(self, job_id: str, task_type: TaskType) -> int:
        return len(self._queues.get((job_id, task_type), ()))

    def clear_wave_queue(self, job_id: str, task_type: TaskType) -> int:
        """Drop every queued wave configuration for (*job_id*, *task_type*).

        Degraded-mode escape hatch: when the tuner crashes mid-wave its
        queued trial configurations must stop pinning new tasks --
        subsequent launches fall through to the job-level
        (last-known-good) configuration.  Returns the number dropped.
        """
        queue = self._queues.get((job_id, task_type))
        if not queue:
            return 0
        dropped = len(queue)
        queue.clear()
        return dropped

    # ------------------------------------------------------------------
    # ConfigProvider seam (consumed by the app master)
    # ------------------------------------------------------------------
    def task_config(self, spec: JobSpec, task_id: TaskId) -> Configuration:
        """Resolve the configuration at container-*request* time.

        The app master uses this to size the container ask.  Sampled
        (wave-queue) and per-task-override configurations are final;
        job-level configurations are refreshed again at launch time via
        :meth:`task_launch_config`, because the request may sit in the
        scheduler queue long enough for the tuner to move on.
        """
        if spec.job_id not in self._jobs:
            self.register_job(spec)
        tid = str(task_id)
        overrides = self._task_overrides[spec.job_id].get(tid)
        meta: object = None
        if overrides:
            config = self._job_config[spec.job_id].updated(overrides)
            self._pinned.add(tid)
        else:
            queue = self._queues.get((spec.job_id, task_id.task_type))
            if queue:
                config, meta = queue.popleft()
                self._pinned.add(tid)
            else:
                config = self._job_config[spec.job_id]
                self._pinned.discard(tid)
        # A new object: the live configuration never aliases the job
        # configuration or a queued sample.
        config = enforce_dependencies(config)
        self._live[tid] = config
        for listener in self.assignment_listeners:
            listener(spec.job_id, task_id, config, meta)
        return config

    #: Container-sizing parameters fixed once the grant is made.
    _GRANT_PARAMS = (
        "mapreduce.map.memory.mb",
        "mapreduce.reduce.memory.mb",
        "mapreduce.map.cpu.vcores",
        "mapreduce.reduce.cpu.vcores",
    )

    def task_launch_config(
        self, spec: JobSpec, task_id: TaskId, requested: Configuration
    ) -> Configuration:
        """Re-resolve the configuration at task-*launch* time.

        This models the slave configurator picking up the freshest
        per-task configuration file when the container actually starts.
        Sampled/overridden tasks keep their assigned configuration; a
        task on the job-level path re-reads the current job config,
        except for the container-sizing parameters, which are pinned to
        what was granted.
        """
        tid = str(task_id)
        if tid in self._pinned:
            return requested
        grant = {name: requested[name] for name in self._GRANT_PARAMS}
        fresh = enforce_dependencies(self._job_config[spec.job_id].updated(grant))
        self._live[tid] = fresh
        return fresh

    def task_finished(self, task_id: TaskId) -> None:
        self._live.pop(str(task_id), None)
        self._pinned.discard(str(task_id))

    # ------------------------------------------------------------------
    def _require_job(self, job_id: str) -> None:
        if job_id not in self._jobs:
            raise KeyError(f"job {job_id!r} is not registered with the configurator")
