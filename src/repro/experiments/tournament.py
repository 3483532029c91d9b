"""The optimizer tournament: race search backends on identical seeds.

MRONLINE commits to one search strategy -- gray-box smart hill
climbing -- and argues for it qualitatively (Section 5's three
properties).  The tournament quantifies that choice: every registered
backend (:data:`repro.core.optimizers.OPTIMIZER_BACKENDS`) runs the
same aggressive online-tuning session on the same workloads and seeds,
and is scored on

* **best cost** -- the Equation-1 cost of the best validated
  configuration each search ends with (per task-type search, summed);
* **tuned job time** -- a fresh run of the same job under each
  backend's recommended configuration;
* **samples to target** -- cost evaluations spent before the running
  best first enters the target band (within
  :data:`TARGET_TOLERANCE` of the best final cost any backend reached
  on that case x seed), the convergence-speed metric.

Entries are independent simulations, so they fan out over the process
pool like any other experiment; every entry derives its RNG streams
from its own seed, making the whole tournament bit-identical across
worker counts.  ``benchmarks/test_ablation_optimizer_tournament.py``
renders the full report; the CI ``tuner-tournament`` job runs a
small-budget variant and gates the hill climber's pinned best cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.optimizers import OPTIMIZER_BACKENDS

#: A backend "reached the target" once its running best cost is within
#: this factor of the best final cost any backend achieved on the same
#: (case, seed, task type).
TARGET_TOLERANCE = 1.05

#: Tournament budgets: ``small`` keeps a full backend x workload grid
#: under a couple of minutes (the CI gate's variant); ``paper`` runs
#: every backend with its default settings.
BUDGETS = ("small", "paper")


def budget_settings(backend: str, budget: str):
    """The settings object for *backend* under *budget*.

    ``None`` means the backend's own defaults (the ``paper`` budget).
    Small budgets are scaled so every backend gets waves of comparable
    size and a comparable total-evaluation ceiling, keeping the race
    about search strategy rather than sample count.
    """
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}, want one of {BUDGETS}")
    if budget == "paper":
        return None
    if backend == "hill_climb":
        from repro.core.hill_climbing import HillClimbSettings

        return HillClimbSettings(m=8, n=6, global_search_limit=2)
    if backend == "spsa":
        from repro.core.optimizers.spsa import SpsaSettings

        return SpsaSettings(pairs=2, iterations=8, patience=4)
    if backend in ("random", "lhs"):
        from repro.core.optimizers.random_search import RandomSearchSettings

        return RandomSearchSettings(wave_size=8, patience=2, max_waves=6)
    raise ValueError(
        f"unknown optimizer backend {backend!r}, want one of {OPTIMIZER_BACKENDS}"
    )


@dataclass(frozen=True)
class TournamentEntry:
    """One backend x case x seed race lane (picklable work item)."""

    backend: str
    case_name: str
    seed: int
    num_blocks: Optional[int] = None
    num_reducers: Optional[int] = None
    budget: str = "small"

    def __post_init__(self) -> None:
        if self.backend not in OPTIMIZER_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}, want one of {OPTIMIZER_BACKENDS}"
            )
        budget_settings(self.backend, self.budget)  # validates the budget


@dataclass(frozen=True)
class SearchTrace:
    """One task-type search's scoring inputs, as plain data."""

    task_type: str
    best_cost: Optional[float]
    samples_proposed: int
    tasks_evaluated: int
    #: ``(observation index, running best cost)`` checkpoints.
    trajectory: Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class TournamentResult:
    """What one race lane reports back across the process boundary."""

    entry: TournamentEntry
    succeeded: bool
    #: Duration of the tuning session's job (the expedited test run).
    tuning_job_time: float
    #: Duration of a fresh run under the recommended configuration.
    tuned_job_time: float
    traces: Tuple[SearchTrace, ...]

    @property
    def total_best_cost(self) -> Optional[float]:
        costs = [t.best_cost for t in self.traces if t.best_cost is not None]
        return sum(costs) if costs else None

    @property
    def samples_proposed(self) -> int:
        return sum(t.samples_proposed for t in self.traces)


def run_tournament_entry(entry: TournamentEntry) -> TournamentResult:
    """Top-level worker: one backend's full tuning session + tuned run."""
    from repro.backends.sim import SimBackend
    from repro.core.tuner import TunerSettings, TuningStrategy
    from repro.experiments.expedited import run_with_config
    from repro.experiments.harness import run_tuned
    from repro.experiments.parallel import RunRequest, resolve_case
    from repro.workloads.suite import make_job_spec

    request = RunRequest(
        case_name=entry.case_name,
        seed=entry.seed,
        num_blocks=entry.num_blocks,
        num_reducers=entry.num_reducers,
    )
    case = resolve_case(request)
    sim_backend = SimBackend(seed=entry.seed)
    spec = make_job_spec(case, sim_backend.hdfs)
    settings = TunerSettings(
        optimizer=entry.backend,
        optimizer_settings=budget_settings(entry.backend, entry.budget),
    )
    result, tuner = run_tuned(
        sim_backend, spec, TuningStrategy.AGGRESSIVE, entry.seed, settings
    )
    summary = tuner.session_summary(spec.job_id)
    tuned = run_with_config(case, entry.seed, tuner.recommended_config(spec.job_id))

    traces = tuple(
        SearchTrace(
            task_type=task_type,
            best_cost=search["best_cost"],
            samples_proposed=search["samples_proposed"],
            tasks_evaluated=search["tasks_evaluated"],
            trajectory=tuple(
                (int(n), float(c)) for n, c in search["cost_trajectory"]
            ),
        )
        for task_type, search in sorted(summary["searches"].items())
    )
    return TournamentResult(
        entry=entry,
        succeeded=bool(result.succeeded and tuned.succeeded),
        tuning_job_time=float(result.duration),
        tuned_job_time=float(tuned.duration),
        traces=traces,
    )


@dataclass(frozen=True)
class TournamentRow:
    """One backend's scored line for one (case, seed)."""

    backend: str
    case_name: str
    seed: int
    succeeded: bool
    best_cost: Optional[float]
    tuning_job_time: float
    tuned_job_time: float
    samples_proposed: int
    #: Observations spent until every task-type search was inside the
    #: target band; ``None`` when some search never got there.
    samples_to_target: Optional[int]


@dataclass
class TournamentReport:
    """All race lanes, scored against the per-(case, seed) targets."""

    budget: str
    results: List[TournamentResult]
    rows: List[TournamentRow]


def _samples_to_target(
    result: TournamentResult,
    targets: Dict[Tuple[str, int, str], float],
) -> Optional[int]:
    """Observations until every task-type search entered its band."""
    total = 0
    for trace in result.traces:
        key = (result.entry.case_name, result.entry.seed, trace.task_type)
        target = targets.get(key)
        if target is None:
            continue
        reached = [n for n, cost in trace.trajectory if cost <= target]
        if not reached:
            return None
        total += reached[0]
    return total


def run_tournament(
    cases: Sequence[Tuple[str, Optional[int], Optional[int]]],
    seeds: Sequence[int],
    backends: Sequence[str] = OPTIMIZER_BACKENDS,
    budget: str = "small",
    max_workers: Optional[int] = None,
) -> TournamentReport:
    """Race *backends* over ``(case_name, num_blocks, num_reducers)``
    workloads x *seeds*, all lanes fanned out over the process pool.

    Every backend sees identical seeds (and therefore identical
    clusters, datasets, and fault-free conditions); only the search
    strategy differs.  Scoring happens after the barrier because the
    samples-to-target band is relative to the best final cost *any*
    backend reached on that (case, seed, task type).
    """
    from repro.experiments.parallel import ParallelExperimentRunner

    entries = [
        TournamentEntry(
            backend=backend,
            case_name=name,
            seed=seed,
            num_blocks=blocks,
            num_reducers=reducers,
            budget=budget,
        )
        for name, blocks, reducers in cases
        for seed in seeds
        for backend in backends
    ]
    runner = ParallelExperimentRunner(
        max_workers=max_workers, worker=run_tournament_entry
    )
    results: List[TournamentResult] = runner.run(entries)

    targets: Dict[Tuple[str, int, str], float] = {}
    for result in results:
        for trace in result.traces:
            if trace.best_cost is None:
                continue
            key = (result.entry.case_name, result.entry.seed, trace.task_type)
            best = targets.get(key)
            if best is None or trace.best_cost < best:
                targets[key] = trace.best_cost
    targets = {key: best * TARGET_TOLERANCE for key, best in targets.items()}

    rows = [
        TournamentRow(
            backend=result.entry.backend,
            case_name=result.entry.case_name,
            seed=result.entry.seed,
            succeeded=result.succeeded,
            best_cost=result.total_best_cost,
            tuning_job_time=result.tuning_job_time,
            tuned_job_time=result.tuned_job_time,
            samples_proposed=result.samples_proposed,
            samples_to_target=_samples_to_target(result, targets),
        )
        for result in results
    ]
    return TournamentReport(budget=budget, results=results, rows=rows)
