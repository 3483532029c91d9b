"""The expedited-test-runs experiment (Figures 4-6, plus spills 7-9).

Protocol, per benchmark case and seed (Section 8.2):

1. run the job with the default YARN configuration;
2. run it with the offline tuning-guide configuration;
3. run MRONLINE's aggressive tuning session (one test run) to obtain
   the recommended configuration, then run the job with it.

The execution-time figures report step 1 vs 2 vs 3's final run; the
spill figures report the map-side SPILLED_RECORDS of the same runs
against the combiner-output "Optimal".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.backends.sim import SimBackend
from repro.baselines.offline_guide import offline_guide_config
from repro.core.configuration import Configuration
from repro.core.hill_climbing import HillClimbSettings
from repro.core.tuner import TunerSettings, TuningStrategy
from repro.experiments.harness import checked_duration, run_tuned
from repro.mapreduce.jobspec import TaskType
from repro.workloads.suite import BenchmarkCase, make_job_spec
from repro.yarn.app_master import JobResult


@dataclass
class ExpeditedCaseResult:
    """One case x seed outcome of the expedited protocol."""

    case: str
    seed: int
    default_time: float
    offline_time: float
    mronline_time: float
    tuning_run_time: float
    recommended: Configuration
    optimal_spills: float
    default_spills: float
    offline_spills: float
    mronline_spills: float


def map_side_spills(result: JobResult) -> float:
    """SPILLED_RECORDS of map tasks only (what Figures 7-9 plot)."""
    return float(
        sum(s.spilled_records for s in result.stats_of(TaskType.MAP) if not s.failed)
    )


def optimal_spills(result: JobResult) -> float:
    """The paper's "Optimal": combiner-output records (map output when
    there is no combiner) -- i.e. every record spilled exactly once."""
    total = 0.0
    for s in result.stats_of(TaskType.MAP):
        if s.failed:
            continue
        total += s.combine_output_records or s.map_output_records
    return total


def run_default(case: BenchmarkCase, seed: int) -> JobResult:
    return run_with_config(case, seed, None)


def run_with_config(
    case: BenchmarkCase, seed: int, config: Optional[Configuration]
) -> JobResult:
    """One untuned run under *config* (``None`` = the YARN defaults)."""
    backend = SimBackend(seed=seed)
    return backend.run_job(make_job_spec(case, backend.hdfs, base_config=config))


def run_aggressive_tuning(
    case: BenchmarkCase,
    seed: int,
    hill_climb: Optional[HillClimbSettings] = None,
    optimizer: str = "hill_climb",
) -> tuple:
    """One aggressive tuning session; returns (tuning JobResult, config).

    *optimizer* selects the search backend (``hill_climb`` reproduces
    the paper's protocol; see :mod:`repro.core.optimizers`).  The
    *hill_climb* settings only apply to the hill-climber backend; other
    backends run with their own defaults.
    """
    backend = SimBackend(seed=seed)
    spec = make_job_spec(case, backend.hdfs)
    settings = TunerSettings(
        hill_climb=hill_climb or HillClimbSettings(), optimizer=optimizer
    )
    result, tuner = run_tuned(backend, spec, TuningStrategy.AGGRESSIVE, seed, settings)
    return result, tuner.recommended_config(spec.job_id)


_case_cache: Dict[tuple, ExpeditedCaseResult] = {}


def run_expedited_case(
    case: BenchmarkCase,
    seed: int,
    hill_climb: Optional[HillClimbSettings] = None,
    optimizer: str = "hill_climb",
) -> ExpeditedCaseResult:
    """Full expedited protocol for one case and seed.

    Memoized per (case, seed, settings, backend): the execution-time
    figures (4-6) and the spill figures (7-9) read the same runs.
    """
    key = (case.name, seed, hill_climb, optimizer)
    cached = _case_cache.get(key)
    if cached is not None:
        return cached
    default_result = run_default(case, seed)
    offline_result = run_with_config(case, seed, offline_guide_config(case))
    tuning_result, recommended = run_aggressive_tuning(case, seed, hill_climb, optimizer)
    mronline_result = run_with_config(case, seed, recommended)
    _case_cache[key] = result = ExpeditedCaseResult(
        case=case.name,
        seed=seed,
        default_time=checked_duration(default_result),
        offline_time=checked_duration(offline_result),
        mronline_time=checked_duration(mronline_result),
        tuning_run_time=checked_duration(tuning_result),
        recommended=recommended,
        optimal_spills=optimal_spills(default_result),
        default_spills=map_side_spills(default_result),
        offline_spills=map_side_spills(offline_result),
        mronline_spills=map_side_spills(mronline_result),
    )
    return result


def run_expedited_over_seeds(
    case: BenchmarkCase,
    seeds: List[int],
    hill_climb: Optional[HillClimbSettings] = None,
    max_workers: Optional[int] = None,
    optimizer: str = "hill_climb",
) -> List[ExpeditedCaseResult]:
    """The expedited protocol for every seed, pool-backed.

    Seeds already memoized in this process are served from the cache;
    the rest fan out over the process pool (``max_workers`` resolves
    through ``REPRO_WORKERS``; ``1`` = the exact legacy serial loop).
    Fresh results are written back into the cache so the spill figures
    (7-9) keep sharing runs with the execution-time figures (4-6).
    """
    from functools import partial

    from repro.experiments.parallel import map_seeds

    missing = [
        s for s in seeds if (case.name, s, hill_climb, optimizer) not in _case_cache
    ]
    if missing:
        computed = map_seeds(
            partial(run_expedited_case, case, hill_climb=hill_climb, optimizer=optimizer),
            missing,
            max_workers=max_workers,
        )
        for seed, result in zip(missing, computed):
            _case_cache[(case.name, seed, hill_climb, optimizer)] = result
    return [_case_cache[(case.name, s, hill_climb, optimizer)] for s in seeds]
