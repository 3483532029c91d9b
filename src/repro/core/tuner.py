"""The online tuner: monitor -> tuner -> dynamic configurator loop.

Two strategies (Section 2.3):

* :attr:`TuningStrategy.AGGRESSIVE` -- expedited test runs.  A
  :class:`GrayBoxHillClimber` per task type searches the map and reduce
  parameter subspaces; each batch of sampled configurations is queued
  at the dynamic configurator and a gate holds further task launches
  until the wave's statistics are in.  Between waves the Section-6
  rules tighten the sampling bounds (the gray box).
* :attr:`TuningStrategy.CONSERVATIVE` -- fast single run.  Tasks start
  with the job's defaults; every completed window of tasks drives the
  rules directly, updating the job-level configuration for future tasks
  and hot-swapping category-3 parameters into running ones.  Scheduling
  is never delayed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core import parameters as P
from repro.core.configuration import Configuration, enforce_dependencies
from repro.core.configurator import DynamicConfigurator
from repro.core.cost import FAILURE_COST, CostModel, effective_duration, task_cost
from repro.core.hill_climbing import HillClimbSettings
from repro.core.knowledge_base import TuningKnowledgeBase
from repro.core.optimizers import DEFAULT_OPTIMIZER, OPTIMIZER_BACKENDS, make_optimizer
from repro.core.parameters import PARAMETER_SPACE
from repro.core.rules.base import RuleContext, TuningRule, default_rules
from repro.mapreduce.jobspec import JobSpec, TaskId, TaskType
from repro.monitor.statistics import TaskStats
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.yarn.app_master import LaunchGate, MRAppMaster

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.harness import SimCluster

#: The map-side parameter subspace searched by the aggressive strategy.
MAP_TUNABLE = [
    P.MAP_MEMORY_MB,
    P.IO_SORT_MB,
    P.SORT_SPILL_PERCENT,
    P.MAP_CPU_VCORES,
    P.IO_SORT_FACTOR,
]

#: The reduce-side subspace.
REDUCE_TUNABLE = [
    P.REDUCE_MEMORY_MB,
    P.SHUFFLE_INPUT_BUFFER_PERCENT,
    P.SHUFFLE_MERGE_PERCENT,
    P.SHUFFLE_MEMORY_LIMIT_PERCENT,
    P.MERGE_INMEM_THRESHOLD,
    P.REDUCE_INPUT_BUFFER_PERCENT,
    P.REDUCE_CPU_VCORES,
    P.SHUFFLE_PARALLELCOPIES,
]


#: Rule-log text of a voided wave, by reason (see OnlineTuner._void_wave).
_VOID_LINES = {
    "capacity": "rolled back (capacity-shifted: cluster membership changed mid-wave)",
    "outage": "rolled back (outage-shifted: control plane dark mid-wave)",
    "fetch": "rolled back ({suspect}/{total} samples fault-inflated)",
    "crash": (
        "voided by tuner crash at t={start:.1f} "
        "(degraded on last-known-good until t={end:.1f})"
    ),
}


class TuningStrategy(enum.Enum):
    AGGRESSIVE = "aggressive"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class TunerSettings:
    hill_climb: HillClimbSettings = field(default_factory=HillClimbSettings)
    #: Conservative strategy: completed tasks per rule-update window.
    conservative_window: int = 16
    #: Warm-start searches from the knowledge base when possible.
    use_knowledge_base: bool = True
    #: Aggressive-strategy search backend (see repro.core.optimizers).
    optimizer: str = DEFAULT_OPTIMIZER
    #: Backend-specific settings object; ``None`` uses :attr:`hill_climb`
    #: for the hill climber and the backend's own defaults otherwise.
    optimizer_settings: Optional[object] = None

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZER_BACKENDS:
            raise ValueError(
                f"unknown optimizer {self.optimizer!r}, "
                f"want one of {OPTIMIZER_BACKENDS}"
            )

    def search_settings(self) -> Optional[object]:
        """The settings object handed to the selected backend."""
        if self.optimizer_settings is not None:
            return self.optimizer_settings
        if self.optimizer == "hill_climb":
            return self.hill_climb
        return None


class _SearchState:
    """Aggressive-strategy state for one task type of one job."""

    def __init__(
        self,
        task_type: TaskType,
        names: List[str],
        rng: np.random.Generator,
        settings: Optional[object],
        seed_config: Optional[Configuration],
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> None:
        self.task_type = task_type
        self.space = PARAMETER_SPACE.subspace(names)
        seed_point = None
        if seed_config is not None:
            seed_point = self.space.encode(seed_config.as_dict())
        #: The search backend.  Historically always the hill climber,
        #: hence the name; any Optimizer-protocol backend fits.
        self.climber = make_optimizer(
            optimizer, self.space, rng, settings, seed_point=seed_point
        )
        self.bindings: Dict[str, int] = {}  # task id -> sample id
        #: Completed (sample_id, stats) pairs of the in-flight batch.
        self.result_buffer: List[Tuple[int, TaskStats]] = []
        self.window: List[TaskStats] = []
        self.history: List[TaskStats] = []
        self.memo: Dict[str, object] = {}
        self.slots = 0
        self.admission_queue: List[Event] = []
        self.wave = 0
        self.rule_log: List[str] = []
        self.search_done = False
        #: Admission/report accounting, used to detect a starved batch
        #: (all admitted tasks reported, yet samples remain unevaluated
        #: because the job has too few tasks left -- Section 8.4's small
        #: jobs, or the tail of any job).
        self.admitted = 0
        self.stats_seen = 0
        #: Length of the tuner's quarantine-window list when this batch
        #: opened.  A window added later taints the whole wave, even the
        #: samples it does not overlap: the wave straddles two
        #: environments.
        self.quarantine_mark = 0


class _ConservativeState:
    """Conservative-strategy window for one task type of one job."""

    def __init__(self, task_type: TaskType) -> None:
        self.task_type = task_type
        self.window: List[TaskStats] = []
        self.history: List[TaskStats] = []
        self.memo: Dict[str, object] = {}
        self.rule_log: List[str] = []


class _TunerGate(LaunchGate):
    """Wave gate driven by the tuner's open sample batches."""

    def __init__(self, job: "_JobTuning", tuner: "OnlineTuner") -> None:
        self.job = job
        self.tuner = tuner

    def admit(self, task_type: TaskType, sim: Simulator) -> Event:
        ev = sim.event()
        state = self.job.search_states[task_type]
        if self.tuner.tuner_down():
            # Degraded mode: the tuner process is dead, so nobody is
            # gating.  Release immediately on the last-known-good job
            # configuration; wave -1 marks the launch as untracked.
            # The admitted bump keeps the starved-batch detector's
            # admitted/stats_seen balance honest (the stats still come).
            state.admitted += 1
            ev.succeed(-1)
        elif state.search_done:
            state.admitted += 1
            ev.succeed(state.wave)
        elif state.slots > 0:
            state.slots -= 1
            state.admitted += 1
            ev.succeed(state.wave)
        else:
            state.admission_queue.append(ev)
        return ev

    def task_completed(self, task_type: TaskType) -> None:
        pass  # replenishment happens per batch, on statistics arrival

    def retract(self, task_type: TaskType, admit_event: Event) -> None:
        state = self.job.search_states[task_type]
        if admit_event in state.admission_queue:
            state.admission_queue.remove(admit_event)
            # The killed attempt still reports synthesized statistics
            # (which bumps stats_seen); count it admitted so the starved-
            # batch detector's admitted/stats_seen balance holds.
            state.admitted += 1


class _JobTuning:
    """Everything the tuner tracks for one attached job."""

    def __init__(self, spec: JobSpec, input_bytes: float) -> None:
        self.spec = spec
        self.input_bytes = input_bytes
        self.cost_model = CostModel()
        self.search_states: Dict[TaskType, _SearchState] = {}
        self.conservative_states: Dict[TaskType, _ConservativeState] = {}
        self.gate: Optional[LaunchGate] = None
        self.finalized = False


class OnlineTuner:
    """The MRONLINE daemon: per-job tuning sessions over a configurator."""

    def __init__(
        self,
        strategy: TuningStrategy = TuningStrategy.CONSERVATIVE,
        settings: Optional[TunerSettings] = None,
        rng: Optional[np.random.Generator] = None,
        rules: Optional[List[TuningRule]] = None,
        knowledge_base: Optional[TuningKnowledgeBase] = None,
        configurator: Optional[DynamicConfigurator] = None,
    ) -> None:
        self.strategy = strategy
        self.settings = settings or TunerSettings()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.rules = rules if rules is not None else default_rules()
        # `or` would discard a caller's *empty* knowledge base (it is
        # falsy via __len__), silently severing cross-job warm starts.
        self.knowledge_base = (
            knowledge_base if knowledge_base is not None else TuningKnowledgeBase()
        )
        self.configurator = configurator or DynamicConfigurator()
        self._jobs: Dict[str, _JobTuning] = {}
        #: job id -> the knowledge-base configuration that seeded its
        #: search (None on a cold start).  The tuning service reads this
        #: to report warm-start provenance and to assert determinism.
        self.warm_start_seeds: Dict[str, Optional[Configuration]] = {}
        self.configurator.assignment_listeners.append(self._on_assignment)
        #: Quarantine windows ``(start, end, reason)``, inclusive at both
        #: ends: elastic capacity changes (``"capacity"``, a point),
        #: monitor outages (``"outage"``) and tuner crashes (``"crash"``).
        #: A measurement overlapping one proves nothing about its
        #: configuration (see :meth:`quarantine_reason`).
        self.quarantine_windows: List[Tuple[float, float, str]] = []
        self._elastic: Optional[object] = None
        #: True while the (simulated) tuner process is crashed.
        self._down = False
        #: Simulated time the current outage ends; overlapping crashes
        #: extend it, and a stale recovery callback checks against it.
        self._down_until = 0.0
        self._control: Optional[object] = None
        #: Telemetry bus for ``tuner``-category events; :meth:`submit`
        #: picks it up from the cluster's simulator automatically.
        self.telemetry = None

    def _tel(self):
        """The bus when someone subscribed to tuner events, else None."""
        tel = self.telemetry
        if tel is not None and tel.wants("tuner"):
            return tel
        return None

    def _on_assignment(
        self, job_id: str, task_id: TaskId, config: Configuration, meta: object
    ) -> None:
        """Record which hill-climbing sample a launching task evaluates."""
        job = self._jobs.get(job_id)
        if job is None or meta is None:
            return
        state = job.search_states.get(task_id.task_type)
        if state is not None:
            state.bindings[str(task_id)] = int(meta)

    # ------------------------------------------------------------------
    # Job attachment
    # ------------------------------------------------------------------
    def attach_job(
        self, spec: JobSpec, input_bytes: float = 0.0
    ) -> Tuple[DynamicConfigurator, LaunchGate]:
        """Prepare tuning for *spec*; returns (config provider, gate)."""
        if spec.job_id in self._jobs:
            raise ValueError(f"job {spec.job_id!r} already attached")
        self.configurator.register_job(spec)
        job = _JobTuning(spec, input_bytes)
        self._jobs[spec.job_id] = job
        seed = None
        if self.settings.use_knowledge_base and input_bytes > 0:
            seed = self.knowledge_base.lookup(spec.workload.name, input_bytes)
        self.warm_start_seeds[spec.job_id] = seed
        if self.strategy is TuningStrategy.AGGRESSIVE:
            search = self.settings.search_settings()
            for task_type, names in (
                (TaskType.MAP, MAP_TUNABLE),
                (TaskType.REDUCE, REDUCE_TUNABLE),
            ):
                state = _SearchState(
                    task_type,
                    names,
                    self.rng,
                    search,
                    seed_config=seed,
                    optimizer=self.settings.optimizer,
                )
                job.search_states[task_type] = state
                self._bridge_search_decisions(spec.job_id, state)
                self._open_batch(job, state)
            job.gate = _TunerGate(job, self)
        else:
            if seed is not None:
                # Knowledge-base hit: start the single run from it.
                self.configurator.set_job_parameters(spec.job_id, seed.as_dict())
            for task_type in (TaskType.MAP, TaskType.REDUCE):
                job.conservative_states[task_type] = _ConservativeState(task_type)
            job.gate = LaunchGate()
        return self.configurator, job.gate

    def _bridge_search_decisions(self, job_id: str, state: _SearchState) -> None:
        """Forward hill-climber decisions onto the telemetry bus."""
        tel = self._tel()
        if tel is None:
            return
        task_type = state.task_type.value

        def forward(decision: str, info: Dict[str, object]) -> None:
            from repro.telemetry.events import SearchDecision

            tel.emit(
                SearchDecision(
                    time=tel.now,
                    job_id=job_id,
                    task_type=task_type,
                    decision=decision,
                    detail=info,
                )
            )
            tel.increment("tuner.search_decisions")

        state.climber.decision_listeners.append(forward)

    def submit(
        self, sim_cluster: "SimCluster", spec: JobSpec, weight: float = 1.0
    ) -> MRAppMaster:
        """Attach, submit, and wire statistics in one call.

        *weight* is the job's fair-share weight (the tuning service
        submits each tenant's jobs under the tenant's weight); the
        default of 1.0 preserves the historical single-tenant behavior.
        """
        if self.telemetry is None:
            self.telemetry = sim_cluster.sim.telemetry
        input_bytes = sim_cluster.hdfs.get(spec.input_path).size_bytes
        provider, gate = self.attach_job(spec, input_bytes=input_bytes)
        am = sim_cluster.submit(spec, config_provider=provider, gate=gate, weight=weight)
        am.stats_listeners.append(self.on_task_stats)
        am.completion.add_callback(lambda ev: self.finalize_job(spec.job_id, ev.value))
        elastic = getattr(
            getattr(sim_cluster, "fault_injector", None), "elastic", None
        )
        if elastic is not None and elastic is not self._elastic:
            # Elastic churn is armed: learn about every membership change
            # so each adds a capacity quarantine window.
            self._elastic = elastic
            elastic.capacity_listeners.append(
                lambda t, e=elastic: self.note_capacity_change(
                    t, live_nodes=len(e.cluster.live_nodes)
                )
            )
        control = getattr(
            getattr(sim_cluster, "fault_injector", None), "control", None
        )
        if control is not None and control is not self._control:
            # Control-plane faults are armed: register for crash /
            # recover callbacks (a registration mid-outage crashes the
            # tuner in place, so late-submitted jobs degrade too).
            self._control = control
            control.register_tuner(self)
        return am

    # ------------------------------------------------------------------
    # Elastic capacity changes
    # ------------------------------------------------------------------
    def note_capacity_change(self, time: float, live_nodes: int = 0) -> None:
        """React to a node joining or leaving the cluster at *time*.

        Adds the point quarantine window ``(time, time, "capacity")``
        (open waves are voided rather than scored -- see
        :meth:`_on_stats_aggressive`), and parallelism-style knobs
        re-clamp to the live capacity: more parallel shuffle copies than
        live map hosts buys nothing, so the search stops proposing them
        and single-run configs step down.
        """
        self.quarantine_windows.append((time, time, "capacity"))
        if live_nodes <= 0:
            return
        spec = PARAMETER_SPACE.spec(P.SHUFFLE_PARALLELCOPIES)
        cap = float(max(int(spec.low), min(int(spec.high), live_nodes)))
        for job_id, job in self._jobs.items():
            for state in job.search_states.values():
                if P.SHUFFLE_PARALLELCOPIES not in state.space:
                    continue
                dim = state.space.names.index(P.SHUFFLE_PARALLELCOPIES)
                u = state.space.spec(P.SHUFFLE_PARALLELCOPIES).encode(cap)
                state.climber.bounds.lower_upper(dim, u)
                state.rule_log.append(
                    f"capacity change at t={time:.1f}: "
                    f"{P.SHUFFLE_PARALLELCOPIES} re-clamped to <= {cap:g} "
                    f"({live_nodes} live nodes)"
                )
            current = float(
                self.configurator.job_config(job_id)[P.SHUFFLE_PARALLELCOPIES]
            )
            if current > cap:
                self.configurator.set_task_parameters(
                    job_id, {P.SHUFFLE_PARALLELCOPIES: cap}
                )

    def quarantine_reason(self, stats: TaskStats) -> Optional[str]:
        """Why *stats* proves nothing about its configuration, or None.

        ``"capacity"`` or ``"outage"`` when the measurement overlaps a
        quarantine window (a tuner crash darkens the control plane like
        a monitor outage); otherwise ``"fetch"`` when shuffle fetch
        retries inflated it or an environmental failure (a kill, crash
        or output loss) cut it short.  OOMs are evidence about the
        configuration and never count.
        """
        reason = None
        for start, end, kind in self.quarantine_windows:
            if stats.start_time <= end and start <= stats.end_time:
                if kind == "capacity":
                    return kind
                reason = "outage"
        if reason is None and (
            stats.fetch_retries > 0
            or (stats.failed and stats.failure_kind not in ("", "oom"))
        ):
            reason = "fetch"
        return reason

    # ------------------------------------------------------------------
    # Control-plane faults (tuner crash / monitor outage)
    # ------------------------------------------------------------------
    def tuner_down(self) -> bool:
        """True while the (simulated) tuner process is crashed."""
        return self._down

    def open_search_count(self) -> int:
        """How many per-task-type searches are currently open."""
        return sum(
            0 if state.search_done else 1
            for job in self._jobs.values()
            for state in job.search_states.values()
        )

    def note_control_outage(self, start: float, end: float) -> None:
        """Quarantine measurements spanning a monitor outage.

        The job keeps running, but a wave whose measurements overlap the
        dark window is voided rather than scored, and overlapping
        samples are dropped from the rule windows -- Eq-1 inputs from a
        blind monitor prove nothing about the configurations.
        """
        self.quarantine_windows.append((start, end, "outage"))

    def on_tuner_crash(self, now: float, until: float) -> int:
        """The tuner process died at *now*; it restarts at *until*.

        The crash adds the quarantine window ``(now, until, "crash")``.
        Open waves with an incumbent are voided immediately (see
        :meth:`_void_wave`), and every task parked at the gate launches
        untracked.  Waves still bootstrapping (no incumbent yet -- the
        initial sampling wave) keep draining their already-queued
        samples, tainted by the window like any open wave.  Returns the
        number of waves voided.
        """
        self._down = True
        self._down_until = max(self._down_until, until)
        self.quarantine_windows.append((now, until, "crash"))
        voided = 0
        for job in self._jobs.values():
            for state in job.search_states.values():
                if state.search_done:
                    continue
                voided += self._void_wave(job, state, "crash", start=now, end=until)
                # With the tuner dead nothing refills slots: release
                # everything parked at the gate, untracked.
                while state.admission_queue:
                    ev = state.admission_queue.pop(0)
                    state.admitted += 1
                    ev.succeed(-1)
        return voided

    def on_tuner_recover(self, now: float) -> int:
        """The tuner restarted; reopen every search left without a wave.

        Those are the searches a crash voided, and any whose next batch
        came due while the tuner was down.  The reopened wave is fresh:
        no window added before it opened taints it.
        """
        if now < self._down_until:
            return 0  # a later crash extended the outage
        self._down = False
        reopened = 0
        for job in self._jobs.values():
            for state in job.search_states.values():
                if state.search_done or state.climber.pending_samples():
                    continue
                reopened += 1
                self._open_batch(job, state)
                self._maybe_finish_starved(job, state)
        return reopened

    # ------------------------------------------------------------------
    # Statistics ingestion
    # ------------------------------------------------------------------
    def on_task_stats(self, stats: TaskStats) -> None:
        job = self._jobs.get(stats.task_id.job_id)
        if job is None:
            return
        if stats.speculative:
            # Backup attempts bypass the gate and reuse the primary's
            # configuration; folding them in would double-count samples
            # and corrupt the admitted/stats_seen balance.  Crucially,
            # the *primary* may still be running, so its live config
            # entry must not be cleared either.
            return
        self.configurator.task_finished(stats.task_id)
        if self.strategy is TuningStrategy.AGGRESSIVE:
            self._on_stats_aggressive(job, stats)
        else:
            self._on_stats_conservative(job, stats)

    # -- aggressive path ----------------------------------------------------
    def _open_batch(self, job: _JobTuning, state: _SearchState) -> None:
        if self._down:
            # The tuner process is down: no new waves.  Recovery reopens
            # this search (covers jobs attached mid-outage too).
            return
        want = state.climber.replicas
        while True:
            samples = state.climber.propose()
            if not samples:
                self._finish_search(job, state)
                return
            # Samples landing in a known-infeasible (OOM-observed) region
            # are priced at FAILURE_COST immediately instead of burning
            # real task attempts on them.  The incumbent is exempt: its
            # cost must stay freshly measured for the improvement test.
            infeasible = [
                s
                for s in state.climber.pending_samples()
                if not s.incumbent and state.climber.is_infeasible(s.point)
            ]
            for sample in infeasible:
                for _ in range(want - len(sample.costs)):
                    state.climber.observe(sample.sample_id, FAILURE_COST)
            pending = state.climber.pending_samples()
            if pending:
                break
            # The entire batch was auto-priced; the climber has advanced
            # (or finished) -- propose the next batch.
        base = job.spec.base_config
        configs: List[Tuple[Configuration, object]] = []
        for sample in pending:
            decoded = state.space.decode(sample.point)
            config = enforce_dependencies(base.updated(decoded))
            for _ in range(want - len(sample.costs)):
                configs.append((config, sample.sample_id))
        self.configurator.push_wave_configs(job.spec.job_id, state.task_type, configs)
        state.slots += len(configs)
        state.wave += 1
        state.quarantine_mark = len(self.quarantine_windows)
        tel = self._tel()
        if tel is not None:
            from repro.telemetry.events import WaveOpened

            tel.emit(
                WaveOpened(
                    time=tel.now,
                    job_id=job.spec.job_id,
                    task_type=state.task_type.value,
                    wave=state.wave,
                    num_configs=len(configs),
                )
            )
            tel.increment("tuner.waves_opened")
        self._drain_admissions(state)

    def _drain_admissions(self, state: _SearchState) -> None:
        while state.admission_queue and (state.slots > 0 or state.search_done):
            ev = state.admission_queue.pop(0)
            if not state.search_done:
                state.slots -= 1
            state.admitted += 1
            ev.succeed(state.wave)

    def _finish_search(self, job: _JobTuning, state: _SearchState) -> None:
        if state.search_done:
            return
        state.search_done = True
        # Future tasks of this type run the best configuration found.
        self._pin_incumbent(job, state)
        self._drain_admissions(state)

    def _pin_incumbent(self, job: _JobTuning, state: _SearchState) -> None:
        """Set the job configuration to the search's best point so far."""
        best = state.climber.best_config(job.spec.base_config)
        values = {name: best[name] for name in state.space.names}
        self.configurator.set_job_parameters(job.spec.job_id, values)

    def _on_stats_aggressive(self, job: _JobTuning, stats: TaskStats) -> None:
        state = job.search_states[stats.task_type]
        state.stats_seen += 1
        state.window.append(stats)
        state.history.append(stats)
        job.cost_model.observe(stats)  # tracks job-level T_max
        sample_id = state.bindings.pop(str(stats.task_id), None)
        if sample_id is None or state.climber.finished:
            self._maybe_finish_starved(job, state)
            return
        if stats.failed and stats.failure_kind == "oom":
            # Config-induced failure: the sampled point (and its
            # vicinity) is infeasible, not merely expensive.  Later
            # batches auto-fail samples landing there (_open_batch).
            state.climber.mark_infeasible(sample_id)
        state.result_buffer.append((sample_id, stats))
        # A wave's costs are computed together, once every sample in the
        # batch has its required replica evaluations: normalizing the
        # duration term within the wave keeps the comparison about the
        # *configurations*, not about when in the job the wave ran (early
        # reducers, for instance, spend most of their time waiting for
        # map outputs regardless of configuration).
        counts: Dict[int, int] = {}
        for sid, _s in state.result_buffer:
            counts[sid] = counts.get(sid, 0) + 1
        want = state.climber.replicas
        pending = state.climber.pending_samples()
        if not pending or any(counts.get(s.sample_id, 0) < want for s in pending):
            self._maybe_finish_starved(job, state)
            return
        # Safe exploration: a wave that straddles a quarantine window, or
        # is dominated by environmental damage (attempts lost to kills,
        # crashes or output loss; measurements inflated by fetch
        # retries), says nothing about the candidate configurations.
        # Void it and re-propose around the incumbent (last-known-good)
        # rather than letting the environment steer the search.
        reasons = [self.quarantine_reason(s) for _sid, s in state.result_buffer]
        total = len(reasons)
        suspect = total - reasons.count(None)
        tainted = {kind for _s, _e, kind in self.quarantine_windows[state.quarantine_mark:]}
        if "capacity" in tainted or "capacity" in reasons:
            reason = "capacity"
        elif tainted or "outage" in reasons:
            reason = "outage"
        else:
            reason = "fetch" if suspect * 2 >= total else None
        if reason and self._void_wave(job, state, reason, suspect=suspect, total=total):
            return
        durations = [
            effective_duration(s)
            for _sid, s in state.result_buffer
            if not s.failed
        ]
        t_max = max(durations) if durations else 1.0
        for sid, s in state.result_buffer:
            state.climber.observe(sid, task_cost(s, t_max))
        state.result_buffer = []
        # Wave complete: gray-box bound adjustment, then the next batch.
        # Quarantined measurements are kept in the history but excluded
        # from the rule window: their durations and utilization mix
        # reflect the environment, not the config.
        ctx = RuleContext(
            task_type=state.task_type,
            space=state.space,
            bounds=state.climber.bounds,
            window=[s for s in state.window if self.quarantine_reason(s) is None],
            history=state.history,
            rng=self.rng,
            memo=state.memo,
        )
        tel = self._tel()
        for rule in self.rules:
            lines = rule.adjust_bounds(ctx)
            state.rule_log.extend(lines)
            if tel is not None and lines:
                from repro.telemetry.events import RuleFired

                for line in lines:
                    tel.emit(
                        RuleFired(
                            time=tel.now,
                            job_id=job.spec.job_id,
                            task_type=state.task_type.value,
                            rule=type(rule).__name__,
                            detail=line,
                        )
                    )
                    tel.increment("tuner.rules_fired")
        state.window = []
        if state.climber.finished:
            self._finish_search(job, state)
        else:
            self._open_batch(job, state)
            self._maybe_finish_starved(job, state)

    def _maybe_finish_starved(self, job: _JobTuning, state: _SearchState) -> None:
        """End a search the job can no longer feed.

        If every admitted task has reported and samples are still
        unevaluated, no running task can ever complete the batch: the
        job simply has too few tasks left (the paper: "if too few tasks
        are executed, the configuration quality can be improved by
        multiple test runs").  Finish with the best validated point so
        queued tasks -- and with them the whole job -- are not
        deadlocked behind an unfillable wave.
        """
        if state.search_done:
            return
        outstanding = state.admitted - state.stats_seen
        if outstanding <= 0 and state.climber.pending_samples():
            self._finish_search(job, state)

    def _void_wave(
        self,
        job: _JobTuning,
        state: _SearchState,
        reason: str,
        suspect: int = 0,
        total: int = 0,
        start: float = 0.0,
        end: float = 0.0,
    ) -> bool:
        """Discard the in-flight wave of *state* for *reason*.

        The only place a search rolls back: the batch is dropped
        without advancing the search, along with its queued trial
        configurations, its task bindings and its measurements, and the
        job falls back to the incumbent (last-known-good) configuration.
        A fresh batch is then proposed around the incumbent -- deferred
        to recovery while the tuner is down.  Returns False, changing
        nothing, when there is nothing to roll back to.
        """
        if not state.climber.rollback():
            return False
        job_id = job.spec.job_id
        self.configurator.clear_wave_queue(job_id, state.task_type)
        state.slots = 0
        # Stats for voided samples must not reach observe(): the batch
        # they belonged to no longer exists.
        state.bindings.clear()
        state.result_buffer = []
        state.window = []
        self._pin_incumbent(job, state)
        line = _VOID_LINES[reason].format(
            suspect=suspect, total=total, start=start, end=end
        )
        state.rule_log.append(f"wave {state.wave}: {line}")
        tel = self._tel()
        if tel is not None:
            from repro.telemetry.events import TunerRollback

            tel.emit(
                TunerRollback(
                    time=tel.now,
                    job_id=job_id,
                    task_type=state.task_type.value,
                    wave=state.wave,
                    reason=reason,
                    suspect_samples=suspect,
                    total_samples=total,
                )
            )
            tel.increment("tuner.rollbacks")
        self._open_batch(job, state)
        self._maybe_finish_starved(job, state)
        return True

    # -- conservative path ----------------------------------------------------
    def _on_stats_conservative(self, job: _JobTuning, stats: TaskStats) -> None:
        state = job.conservative_states[stats.task_type]
        state.history.append(stats)
        job.cost_model.observe(stats)
        if self._down:
            # Degraded mode: statistics keep accumulating in the history
            # but no rule updates fire until the tuner restarts.
            return
        state.window.append(stats)
        if len(state.window) < self.settings.conservative_window:
            return
        config = self.configurator.job_config(job.spec.job_id)
        ctx = RuleContext(
            task_type=state.task_type,
            space=PARAMETER_SPACE,
            bounds=None,  # bounds are an aggressive-strategy concept
            # Quarantined stats stay in the history but are dropped from
            # the rule window (see _on_stats_aggressive).
            window=[s for s in state.window if self.quarantine_reason(s) is None],
            history=state.history,
            rng=self.rng,
            memo=state.memo,
        )
        changes: Dict[str, float] = {}
        for rule in self.rules:
            changes.update(rule.conservative_update(ctx, config.updated(changes)))
        if changes:
            feasible = enforce_dependencies(config.updated(changes))
            applied = {}
            for name in changes:
                if name not in feasible:
                    continue
                old, new = float(config[name]), float(feasible[name])
                # Hysteresis: skip sub-2% refinements so the configuration
                # settles instead of chasing estimate jitter.
                if old != 0 and abs(new - old) / abs(old) < 0.02:
                    continue
                if old == new:
                    continue
                applied[name] = new
            if applied:
                # Future tasks pick this up from the job config; running
                # tasks receive the hot-swappable subset immediately.
                self.configurator.set_task_parameters(job.spec.job_id, applied)
                line = ", ".join(f"{k}={v:g}" for k, v in sorted(applied.items()))
                state.rule_log.append(line)
                tel = self._tel()
                if tel is not None:
                    from repro.telemetry.events import RuleFired

                    tel.emit(
                        RuleFired(
                            time=tel.now,
                            job_id=job.spec.job_id,
                            task_type=state.task_type.value,
                            rule="conservative_window",
                            detail=line,
                        )
                    )
                    tel.increment("tuner.rules_fired")
        state.window = []

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def recommended_config(self, job_id: str) -> Configuration:
        """The configuration the tuning session recommends for re-runs."""
        job = self._jobs[job_id]
        base = job.spec.base_config
        if self.strategy is TuningStrategy.AGGRESSIVE:
            config = base.copy()
            for state in job.search_states.values():
                best = state.climber.best_config(base)
                for name in state.space.names:
                    config[name] = best[name]
            return enforce_dependencies(config)
        return enforce_dependencies(self.configurator.job_config(job_id).copy())

    def finalize_job(self, job_id: str, result: object = None) -> Configuration:
        """Record the session's outcome in the knowledge base."""
        job = self._jobs[job_id]
        config = self.recommended_config(job_id)
        if not job.finalized:
            job.finalized = True
            costs = []
            if self.strategy is TuningStrategy.AGGRESSIVE:
                for state in job.search_states.values():
                    c = state.climber.best_cost()
                    if c is not None:
                        costs.append(c)
            cost = sum(costs) if costs else float("inf")
            duration = getattr(result, "duration", 0.0) if result is not None else 0.0
            self.knowledge_base.record(
                job.spec.workload.name, job.input_bytes, config, cost, duration
            )
        return config

    def rule_log(self, job_id: str) -> List[str]:
        """Every gray-box adjustment made while tuning *job_id*."""
        job = self._jobs[job_id]
        out: List[str] = []
        for state in job.search_states.values():
            out.extend(state.rule_log)
        for cstate in job.conservative_states.values():
            out.extend(cstate.rule_log)
        return out

    def session_checkpoint(self, job_id: str) -> Dict[str, object]:
        """A JSON-safe snapshot of the session's optimizer state.

        One ``WaveOptimizer.checkpoint`` per task-type search --
        incumbent point and cost, rule-tightened bounds, infeasible
        regions, and the wave counters -- keyed for the recovery
        journal.  Conservative sessions have no search state and
        checkpoint to an empty mapping.
        """
        job = self._jobs[job_id]
        return {
            "job_id": job_id,
            "workload": job.spec.workload.name,
            "searches": {
                task_type.value: state.climber.checkpoint()
                for task_type, state in job.search_states.items()
            },
        }

    def session_summary(self, job_id: str) -> Dict[str, object]:
        """A structured account of the tuning session (for reports/UIs)."""
        job = self._jobs[job_id]
        summary: Dict[str, object] = {
            "job_id": job_id,
            "workload": job.spec.workload.name,
            "strategy": self.strategy.value,
            "recommended": self.recommended_config(job_id).as_dict(),
            "rule_adjustments": len(self.rule_log(job_id)),
        }
        if self.strategy is TuningStrategy.AGGRESSIVE:
            summary["optimizer"] = self.settings.optimizer
            searches = {}
            for task_type, state in job.search_states.items():
                searches[task_type.value] = {
                    "waves": state.wave,
                    "samples_proposed": state.climber.samples_proposed,
                    "tasks_evaluated": state.stats_seen,
                    "finished": state.climber.finished or state.search_done,
                    "best_cost": state.climber.best_cost(),
                    # The wave in which the running best was last
                    # improved (None when nothing was ever observed).
                    "wave_of_best": getattr(state.climber, "wave_of_best", None),
                    # (observation index, running best cost) pairs; the
                    # tournament derives samples-to-target from these.
                    "cost_trajectory": list(state.climber.cost_trajectory),
                }
            summary["searches"] = searches
        else:
            windows = {
                t.value: len(s.history)
                for t, s in job.conservative_states.items()
            }
            summary["tasks_observed"] = windows
        return summary
