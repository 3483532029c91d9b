"""Process-pool fan-out for independent simulation runs.

Every measurement in the reproduction repeats a deterministic
simulation over seed replicas ("we repeat each experiment four times
... and report the average"), and the replicas are fully independent:
each one builds its own :class:`~repro.experiments.harness.SimCluster`
seeded by its own :class:`~repro.sim.rng.RngRegistry`.  The serial
loops in the experiment drivers and the figure benchmarks therefore
leave every core but one idle.  This module fans those loops out
across a :class:`concurrent.futures.ProcessPoolExecutor` without
changing a single simulated outcome.

Live simulator state (``SimCluster``, ``MRAppMaster``) is not
picklable, so work crosses the process boundary *declaratively*:

* :class:`RunRequest` names a run -- benchmark case, seed, serialized
  configuration overrides, scheduler kind, optional tuning mode --
  using only plain picklable values;
* :func:`execute_request` is a pure top-level worker that rebuilds the
  cluster from the request (:func:`build_request`), runs the job
  (:func:`run_request`), and returns a slim :class:`RunOutcome` (job
  time, phase times, spill/shuffle counters, per-node utilization
  summary);
* :func:`run_digest` reduces an outcome to a stable hash, so tests and
  the CI determinism gate can assert that parallel execution is
  bit-identical to the serial path.

:class:`ParallelExperimentRunner` drives any picklable worker over a
list of items with per-run timeout, one retry on worker crash, and
result collection ordered by request.  ``max_workers=1`` (or the
``REPRO_WORKERS=1`` environment knob) bypasses the pool entirely and
reproduces the exact legacy in-process path.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import os
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.configuration import Configuration
from repro.core.parameters import DEFAULTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.sim import SimBackend
    from repro.faults import FaultPlan
    from repro.yarn.app_master import JobResult

#: Environment knob: worker processes for seed/candidate fan-out.
#: Unset or ``0`` means ``os.cpu_count()``; ``1`` forces the exact
#: legacy serial path (no pool, no subprocesses).
WORKERS_ENV = "REPRO_WORKERS"

#: Wall-clock budget per simulation run (generous: the slowest figure
#: run is well under two minutes on commodity hardware).
DEFAULT_RUN_TIMEOUT = 1800.0

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Resolve the worker count: explicit arg > ``REPRO_WORKERS`` > CPUs."""
    if explicit is not None:
        workers = int(explicit)
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        return workers
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        workers = int(raw or "0")
    except ValueError:
        workers = -1  # not a number: rejected with the negatives below
    if workers < 0:
        raise ValueError(
            f"{WORKERS_ENV} must be a worker count >= 1 (or 0 for all CPUs), "
            f"got {raw!r}"
        )
    return workers or os.cpu_count() or 1


class WorkerCrashError(RuntimeError):
    """A worker died (or kept raising) beyond the retry budget."""


class RunTimeoutError(TimeoutError):
    """One run exceeded its wall-clock budget."""


# ----------------------------------------------------------------------
# Declarative run descriptions
# ----------------------------------------------------------------------
_TERASORT_SIZED = re.compile(r"^terasort-(\d+(?:\.\d+)?)gb$")

#: Base tuning modes a request may ask for.  Aggressive mode further
#: accepts an optimizer-backend suffix, ``"aggressive:<backend>"``
#: (e.g. ``"aggressive:spsa"``); bare ``"aggressive"`` means the
#: default hill climber.  The backend rides inside the existing tuning
#: string -- not a new ``RunRequest`` field -- so default requests
#: hash exactly as they always did and the pinned CI digests stand.
TUNING_MODES = ("none", "conservative", "aggressive")


def parse_tuning(tuning: str) -> Tuple[str, str]:
    """Split a tuning string into ``(mode, optimizer backend)``.

    Raises ``ValueError`` for unknown modes, unknown backends, and
    backend suffixes on non-aggressive modes (only the aggressive
    strategy runs a search).
    """
    mode, sep, backend = tuning.partition(":")
    if mode not in TUNING_MODES:
        raise ValueError(f"unknown tuning mode {mode!r}, want one of {TUNING_MODES}")
    if not sep:
        from repro.core.optimizers import DEFAULT_OPTIMIZER

        return mode, DEFAULT_OPTIMIZER
    if mode != "aggressive":
        raise ValueError(
            f"tuning mode {mode!r} does not take an optimizer suffix ({tuning!r})"
        )
    from repro.core.optimizers import OPTIMIZER_BACKENDS

    if backend not in OPTIMIZER_BACKENDS:
        raise ValueError(
            f"unknown optimizer backend {backend!r}, want one of {OPTIMIZER_BACKENDS}"
        )
    return mode, backend


@dataclass(frozen=True)
class RunRequest:
    """A picklable description of one independent simulation run.

    ``config_overrides`` is the serialized form of a
    :class:`Configuration`: a sorted tuple of ``(name, value)`` pairs
    that differ from the Table-2 defaults (``None`` = pure defaults).
    ``num_blocks``/``num_reducers`` optionally shrink the named case's
    dataset -- tests and the CI determinism gate use this to keep fixed
    experiments cheap while exercising every workload profile.
    """

    case_name: str
    seed: int
    config_overrides: Optional[Tuple[Tuple[str, float], ...]] = None
    scheduler: str = "fifo"
    tuning: str = "none"
    num_blocks: Optional[int] = None
    num_reducers: Optional[int] = None
    #: Fault-scenario knobs as sorted ``(name, value)`` pairs -- the
    #: declarative input to :func:`repro.faults.generate_fault_plan`:
    #: a positive ``horizon`` plus non-negative integer counts named
    #: by :data:`repro.faults.KIND_TO_KNOB`.  The plan itself is drawn
    #: worker-side from the run's own seeded ``("faults", "plan")``
    #: stream, so the same request always yields the same scenario.
    #: Alternatively a single ``("plan", json)`` entry replays an
    #: explicit serialized plan (see :func:`repro.faults.plan_to_json`).
    #: ``None`` = fault-free.
    faults: Optional[Tuple[Tuple[str, object], ...]] = None

    def __post_init__(self) -> None:
        parse_tuning(self.tuning)  # raises on unknown mode/backend
        if self.num_blocks is not None and self.num_blocks < 1:
            raise ValueError("num_blocks override must be >= 1")
        if self.num_reducers is not None and self.num_reducers < 1:
            raise ValueError("num_reducers override must be >= 1")
        if self.faults is not None:
            knobs = dict(self.faults)
            if "plan" in knobs:
                if len(self.faults) != 1:
                    raise ValueError("a 'plan' fault entry must be the only knob")
                from repro.faults import plan_from_json

                plan_from_json(str(knobs["plan"]))  # validate early
                return
            from repro.faults import KIND_TO_KNOB

            known = {"horizon", *KIND_TO_KNOB.values()}
            bad = [name for name in knobs if name not in known]
            if bad:
                raise ValueError(f"unknown fault knob(s) {bad}, want a subset of {sorted(known)}")
            if float(knobs.get("horizon", 0.0)) <= 0.0:
                raise ValueError("fault scenarios need a positive 'horizon' knob")
            # Checked here, not in the worker: int() would silently turn
            # 0.5 into 0, and a pool worker's error is retried first.
            for name, value in knobs.items():
                if name != "horizon" and (value < 0 or value != int(value)):
                    raise ValueError(
                        f"fault count {name}={value!r} must be a non-negative integer"
                    )

    @classmethod
    def build(
        cls,
        case_name: str,
        seed: int,
        config: Optional[Configuration] = None,
        scheduler: str = "fifo",
        tuning: str = "none",
        num_blocks: Optional[int] = None,
        num_reducers: Optional[int] = None,
        faults: Optional[Dict[str, object]] = None,
    ) -> "RunRequest":
        """Build a request, serializing *config* into override pairs."""
        return cls(
            case_name=case_name,
            seed=seed,
            config_overrides=serialize_config(config),
            scheduler=scheduler,
            tuning=tuning,
            num_blocks=num_blocks,
            num_reducers=num_reducers,
            faults=tuple(sorted(faults.items())) if faults else None,
        )

    def config(self) -> Optional[Configuration]:
        """Rebuild the base configuration (``None`` = defaults)."""
        if self.config_overrides is None:
            return None
        return Configuration(dict(self.config_overrides))


def serialize_config(
    config: Optional[Configuration],
) -> Optional[Tuple[Tuple[str, float], ...]]:
    """Reduce a configuration to its sorted non-default entries."""
    if config is None:
        return None
    return tuple(
        (name, value)
        for name, value in sorted(config.as_dict().items())
        if DEFAULTS.get(name) != value
    )


def resolve_case(request: RunRequest):
    """Rebuild the benchmark case a request names (worker side).

    Table-3 names resolve directly; ``terasort-<size>gb`` resolves to
    the Figure-13 sized instance.  Block/reducer overrides shrink the
    case afterwards (the dataset is renamed so a shrunk file can never
    alias its full-size sibling inside one cluster).
    """
    from repro.workloads.suite import case_by_name, shrink_case, terasort_case

    match = _TERASORT_SIZED.match(request.case_name)
    if match:
        case = terasort_case(float(match.group(1)))
    else:
        case = case_by_name(request.case_name)
    return shrink_case(case, request.num_blocks, request.num_reducers)


# ----------------------------------------------------------------------
# Slim outcomes and the determinism digest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunOutcome:
    """What one run reports back across the process boundary."""

    request: RunRequest
    job_time: float
    succeeded: bool
    map_phase_time: float
    reduce_phase_time: float
    spilled_records: float
    shuffled_bytes: float
    failed_attempts: float
    counters: Tuple[Tuple[str, float], ...]
    node_cpu_utilization: float
    node_memory_utilization: float
    #: Aggressive tuning only: the recommended configuration overrides.
    recommended: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Attempts killed for environmental reasons (faults, speculation).
    killed_attempts: float = 0.0
    #: Aggregated failed/killed attempt counts by failure kind, e.g.
    #: ``(("node_lost", 3), ("oom", 1))`` -- empty for a clean run.
    failure_reasons: Tuple[Tuple[str, int], ...] = ()
    #: The injected fault scenario, one description line per fault.
    injected_faults: Tuple[str, ...] = ()

    def digest(self) -> str:
        return run_digest(self)

    def recommended_config(self) -> Optional[Configuration]:
        if self.recommended is None:
            return None
        return Configuration(dict(self.recommended))


def run_digest(outcome: RunOutcome) -> str:
    """A stable hash of the outcome tuple.

    Floats are hashed at full precision via ``repr``: the simulator is
    bit-identical across replays, so the digest is too -- any drift
    between serial and parallel execution (or across refactors that
    claim to preserve behaviour) changes the hash.
    """
    payload = repr(dataclasses.astuple(outcome)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def combined_digest(outcomes: Sequence[RunOutcome]) -> str:
    """One hash over an ordered batch of outcomes (the CI gate's unit)."""
    payload = "\n".join(run_digest(o) for o in outcomes).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def _phase_time(result, task_type) -> float:
    stats = [s for s in result.stats_of(task_type) if not s.failed]
    if not stats:
        return 0.0
    return max(s.end_time for s in stats) - min(s.start_time for s in stats)


def fault_counts(knobs: Dict[str, object]) -> Dict[str, int]:
    """The count knobs of a fault-knob dict, as ints (``horizon`` dropped)."""
    return {name: int(value) for name, value in knobs.items() if name != "horizon"}


def build_request(request: RunRequest) -> Tuple["SimBackend", Optional["FaultPlan"]]:
    """The build step: a fresh backend with the request's faults armed.

    Returns the backend and the injected plan (``None`` when fault-free).
    Callers may attach observers to the backend's telemetry bus before
    handing it to :func:`run_request`.
    """
    from repro.backends.sim import SimBackend

    fault_tolerance = None
    if request.faults is not None:
        from repro.yarn.app_master import FaultToleranceSettings, SpeculationSettings

        # Faulted runs fight stragglers with LATE speculation; fault-free
        # runs keep it off so their digests stay bit-identical.
        fault_tolerance = FaultToleranceSettings(speculation=SpeculationSettings())
    # Every digest-gated run flows through the Backend protocol: the
    # adapter builds the SimCluster with identical arguments and drives
    # it identically, so the pinned digests double as proof that the
    # protocol seam is behavior-preserving.
    backend = SimBackend(
        seed=request.seed,
        scheduler=request.scheduler,
        fault_tolerance=fault_tolerance,
    )
    plan = None
    if request.faults is not None:
        knobs = dict(request.faults)
        if "plan" in knobs:
            from repro.faults import plan_from_json

            plan = backend.inject_faults(plan=plan_from_json(str(knobs["plan"])))
        else:
            plan = backend.inject_faults(
                horizon=float(knobs["horizon"]), **fault_counts(knobs)
            )
    return backend, plan


def run_request(
    backend: "SimBackend", request: RunRequest
) -> Tuple["JobResult", Optional[Configuration]]:
    """The run step: run the request's job on *backend*, tuned or not.

    Returns the job result and, for aggressive tuning, the tuner's
    recommended configuration (``None`` otherwise).
    """
    from repro.core.tuner import TunerSettings, TuningStrategy
    from repro.experiments.harness import run_tuned
    from repro.workloads.suite import make_job_spec

    spec = make_job_spec(
        resolve_case(request), backend.hdfs, base_config=request.config()
    )
    mode, optimizer = parse_tuning(request.tuning)
    if mode == "none":
        return backend.run_job(spec), None
    strategy = (
        TuningStrategy.CONSERVATIVE if mode == "conservative" else TuningStrategy.AGGRESSIVE
    )
    result, tuner = run_tuned(
        backend, spec, strategy, request.seed, TunerSettings(optimizer=optimizer)
    )
    if mode != "aggressive":
        return result, None
    return result, tuner.recommended_config(spec.job_id)


def execute_request(request: RunRequest) -> RunOutcome:
    """Pure top-level worker: rebuild the cluster, run, summarize.

    Runs entirely from the request's declarative fields, so it executes
    identically in the parent process (serial path) and in a pool
    worker -- determinism is preserved because each replica owns its
    own ``RngRegistry(seed)`` and no state crosses runs.
    """
    from repro.mapreduce.counters import Counter
    from repro.mapreduce.jobspec import TaskType

    backend, plan = build_request(request)
    result, recommended = run_request(backend, request)
    return RunOutcome(
        request=request,
        job_time=result.duration,
        succeeded=result.succeeded,
        map_phase_time=_phase_time(result, TaskType.MAP),
        reduce_phase_time=_phase_time(result, TaskType.REDUCE),
        spilled_records=result.counters.get(Counter.SPILLED_RECORDS),
        shuffled_bytes=result.counters.get(Counter.SHUFFLED_BYTES),
        failed_attempts=result.counters.get(Counter.FAILED_TASK_ATTEMPTS),
        counters=tuple(sorted(result.counters.snapshot().items())),
        node_cpu_utilization=backend.monitor.mean_cpu_utilization(),
        node_memory_utilization=backend.monitor.mean_memory_utilization(),
        recommended=serialize_config(recommended),
        killed_attempts=result.counters.get(Counter.KILLED_TASK_ATTEMPTS),
        failure_reasons=tuple(sorted(result.failure_reasons.items())),
        injected_faults=tuple(plan.describe()) if plan is not None else (),
    )


# ----------------------------------------------------------------------
# The pool driver
# ----------------------------------------------------------------------
class ParallelExperimentRunner:
    """Fan a picklable worker out over independent items.

    * results come back ordered by item, regardless of completion order
      (so any state machine fed from them advances deterministically);
    * each item gets ``timeout`` seconds of wall clock, surfaced as
      :class:`RunTimeoutError`;
    * a crashed worker process (or a raising worker) is retried once in
      a fresh pool before :class:`WorkerCrashError` propagates;
    * ``max_workers=1`` runs every item in-process -- the exact legacy
      serial path, with no executor constructed at all.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        timeout: float = DEFAULT_RUN_TIMEOUT,
        retries: int = 1,
        worker: Callable[[_T], _R] = execute_request,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.max_workers = resolve_workers(max_workers)
        self.timeout = timeout
        self.retries = retries
        self.worker = worker

    def run(self, items: Sequence[_T]) -> List[_R]:
        items = list(items)
        if not items:
            return []
        if self.max_workers == 1:
            return [self.worker(item) for item in items]
        results: Dict[int, _R] = {}
        victims = self._batch_round(items, results)
        for i, prior_attempts, exc in victims:
            if prior_attempts > self.retries:
                raise WorkerCrashError(
                    f"run {i} ({items[i]!r}) failed after "
                    f"{prior_attempts} attempt(s): {exc!r}"
                ) from exc
            results[i] = self._run_isolated(items[i], i, prior_attempts)
        return [results[i] for i in range(len(items))]

    def _batch_round(
        self, items: Sequence[_T], results: Dict[int, _R]
    ) -> List[Tuple[int, int, BaseException]]:
        """One shared-pool round over every item.

        Returns ``(index, prior_attempts, exception)`` for items that
        must be re-run in isolation.  A worker that *raises* is
        attributable (the pool stays healthy), so its failure counts as
        one attempt; a *killed* worker process poisons the whole
        executor and every still-pending future fails with
        ``BrokenProcessPool`` -- the victims cannot be told apart from
        the culprit, so none is charged an attempt unless exactly one
        future broke (then it must be the culprit).
        """
        raised: List[Tuple[int, int, BaseException]] = []
        broken: List[Tuple[int, BaseException]] = []
        workers = min(self.max_workers, len(items))
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {i: pool.submit(self.worker, items[i]) for i in range(len(items))}
            for i, future in futures.items():
                try:
                    results[i] = future.result(timeout=self.timeout)
                except concurrent.futures.TimeoutError:
                    raise RunTimeoutError(
                        f"run {i} ({items[i]!r}) exceeded {self.timeout:g}s"
                    ) from None
                except concurrent.futures.BrokenExecutor as exc:
                    broken.append((i, exc))
                except Exception as exc:
                    raised.append((i, 1, exc))
        finally:
            # wait=False: a hung or crashed pool must not block the
            # parent; finished pools tear down promptly anyway.
            pool.shutdown(wait=False, cancel_futures=True)
        charge = 1 if len(broken) == 1 else 0
        return raised + [(i, charge, exc) for i, exc in broken]

    def _run_isolated(self, item: _T, index: int, attempts: int) -> _R:
        """Re-run one item in its own single-worker pool.

        With exactly one in-flight item, a broken pool has exactly one
        possible culprit, so the retry budget is charged precisely.
        """
        while True:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)
            try:
                future = pool.submit(self.worker, item)
                try:
                    return future.result(timeout=self.timeout)
                except concurrent.futures.TimeoutError:
                    raise RunTimeoutError(
                        f"run {index} ({item!r}) exceeded {self.timeout:g}s"
                    ) from None
                except Exception as exc:
                    attempts += 1
                    if attempts > self.retries:
                        raise WorkerCrashError(
                            f"run {index} ({item!r}) failed after "
                            f"{attempts} attempt(s): {exc!r}"
                        ) from exc
            finally:
                pool.shutdown(wait=False, cancel_futures=True)


def run_requests(
    requests: Sequence[RunRequest],
    max_workers: Optional[int] = None,
    timeout: float = DEFAULT_RUN_TIMEOUT,
) -> List[RunOutcome]:
    """Execute a batch of :class:`RunRequest`, ordered by request."""
    runner = ParallelExperimentRunner(max_workers=max_workers, timeout=timeout)
    return runner.run(list(requests))


def map_seeds(
    fn: Callable[[int], _R],
    seeds: Sequence[int],
    max_workers: Optional[int] = None,
    timeout: float = DEFAULT_RUN_TIMEOUT,
) -> List[_R]:
    """Map a picklable ``fn(seed)`` over seeds, pool-backed.

    This is the drop-in replacement for the ``[fn(seed) for seed in
    seeds]`` loops in the experiment drivers and figure benchmarks.
    With one worker it *is* that loop.
    """
    runner = ParallelExperimentRunner(
        max_workers=max_workers, timeout=timeout, worker=fn
    )
    return runner.run(list(seeds))
