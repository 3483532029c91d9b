"""The fast-single-run experiment (Figures 10-12).

Per case and seed: one run with the default configuration versus one
run co-executed with MRONLINE's conservative tuner.  The conservative
strategy never delays scheduling, so the comparison is a straight
execution-time A/B (Section 8.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.backends.sim import SimBackend
from repro.core.tuner import TunerSettings, TuningStrategy
from repro.experiments.harness import checked_duration, run_tuned
from repro.workloads.suite import BenchmarkCase, make_job_spec
from repro.yarn.app_master import JobResult


@dataclass
class SingleRunResult:
    case: str
    seed: int
    default_time: float
    mronline_time: float
    failed_attempts: float

    @property
    def improvement(self) -> float:
        if self.default_time <= 0:
            return 0.0
        return (self.default_time - self.mronline_time) / self.default_time


def run_conservative(
    case: BenchmarkCase,
    seed: int,
    settings: Optional[TunerSettings] = None,
) -> tuple:
    """One job co-executed with the conservative tuner."""
    backend = SimBackend(seed=seed)
    spec = make_job_spec(case, backend.hdfs)
    return run_tuned(backend, spec, TuningStrategy.CONSERVATIVE, seed, settings)


def run_single_run_case(
    case: BenchmarkCase, seed: int, settings: Optional[TunerSettings] = None
) -> SingleRunResult:
    from repro.experiments.expedited import run_default

    default_result: JobResult = run_default(case, seed)
    mronline_result, _tuner = run_conservative(case, seed, settings)
    from repro.mapreduce.counters import Counter

    return SingleRunResult(
        case=case.name,
        seed=seed,
        default_time=checked_duration(default_result),
        mronline_time=checked_duration(mronline_result),
        failed_attempts=mronline_result.counters.get(Counter.FAILED_TASK_ATTEMPTS),
    )


def run_single_run_over_seeds(
    case: BenchmarkCase,
    seeds: List[int],
    settings: Optional[TunerSettings] = None,
    max_workers: Optional[int] = None,
) -> List[SingleRunResult]:
    """The single-run A/B for every seed, fanned over the process pool."""
    from functools import partial

    from repro.experiments.parallel import map_seeds

    return map_seeds(
        partial(run_single_run_case, case, settings=settings),
        seeds,
        max_workers=max_workers,
    )
