"""The multi-tenant experiment (Figures 14-16, Section 8.5).

Terasort (60 GB, 448 maps / 200 reduces) and BBP (0.5e6 digits of pi,
100 maps / 1 reduce) run simultaneously under the fair scheduler.
MRONLINE first tunes both applications aggressively in a shared tuning
co-run; the measured comparison then co-runs both jobs with the tuned
configurations versus both with defaults, reporting per-role execution
times and average memory/CPU utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends.sim import SimBackend
from repro.core.configuration import Configuration
from repro.core.hill_climbing import HillClimbSettings
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.experiments.expedited import map_side_spills
from repro.experiments.harness import checked_duration
from repro.mapreduce.jobspec import TaskType
from repro.sim.rng import derive_seed
from repro.workloads.bbp import bbp_profile
from repro.workloads.datasets import DatasetSpec, bbp_dataset
from repro.workloads.suite import BenchmarkCase, JobType, make_job_spec
from repro.workloads.terasort import terasort_profile

GB = 1024**3


def terasort_60gb_case() -> BenchmarkCase:
    """Terasort sized to the paper's 448-map multi-tenant instance."""
    dataset = DatasetSpec("teragen-mt-60gb", num_blocks=448)
    return BenchmarkCase(
        "terasort-60gb-mt", dataset, terasort_profile(), 200,
        JobType.SHUFFLE, float(dataset.size_bytes), float(dataset.size_bytes),
    )


def bbp_case() -> BenchmarkCase:
    return BenchmarkCase(
        "bbp-mt", bbp_dataset(100), bbp_profile(digits=500_000), 1,
        JobType.COMPUTE, 252 * 1024, 0.0,
    )


@dataclass
class RoleUtilization:
    """Mean utilization per role, as Figures 15/16 plot them."""

    memory: Dict[str, float] = field(default_factory=dict)
    cpu: Dict[str, float] = field(default_factory=dict)


@dataclass
class MultiTenantOutcome:
    terasort_time: float
    bbp_time: float
    utilization: RoleUtilization
    terasort_map_spills: float


ROLES = ("Terasort-m", "Terasort-r", "BBP-m", "BBP-r")


def co_run(
    seed: int,
    terasort_config: Optional[Configuration] = None,
    bbp_config: Optional[Configuration] = None,
) -> MultiTenantOutcome:
    """Run both applications together under fair sharing."""
    backend = SimBackend(seed=seed, scheduler="fair")
    ts_spec = make_job_spec(terasort_60gb_case(), backend.hdfs, base_config=terasort_config)
    bbp_spec = make_job_spec(bbp_case(), backend.hdfs, base_config=bbp_config)
    handles = [backend.submit(ts_spec), backend.submit(bbp_spec)]
    ts_result, bbp_result = [backend.wait(h) for h in handles]

    util = RoleUtilization()
    for label, result, task_type in (
        ("Terasort-m", ts_result, TaskType.MAP),
        ("Terasort-r", ts_result, TaskType.REDUCE),
        ("BBP-m", bbp_result, TaskType.MAP),
        ("BBP-r", bbp_result, TaskType.REDUCE),
    ):
        stats = [s for s in result.stats_of(task_type) if not s.failed]
        if stats:
            util.memory[label] = sum(s.memory_utilization for s in stats) / len(stats)
            util.cpu[label] = sum(s.cpu_utilization for s in stats) / len(stats)
        else:
            util.memory[label] = 0.0
            util.cpu[label] = 0.0
    return MultiTenantOutcome(
        terasort_time=checked_duration(ts_result),
        bbp_time=checked_duration(bbp_result),
        utilization=util,
        terasort_map_spills=map_side_spills(ts_result),
    )


def tune_multitenant(
    seed: int, hill_climb: Optional[HillClimbSettings] = None
) -> Tuple[Configuration, Configuration]:
    """Aggressively tune both co-running applications in one session."""
    backend = SimBackend(seed=seed, scheduler="fair")
    ts_spec = make_job_spec(terasort_60gb_case(), backend.hdfs)
    bbp_spec = make_job_spec(bbp_case(), backend.hdfs)
    tuner = OnlineTuner(
        TuningStrategy.AGGRESSIVE,
        settings=TunerSettings(hill_climb=hill_climb or HillClimbSettings()),
        rng=np.random.default_rng(derive_seed(seed, "tuner", "multitenant")),
    )
    handles = [backend.attach_tuner(tuner, ts_spec), backend.attach_tuner(tuner, bbp_spec)]
    for handle in handles:
        backend.wait(handle)
    return (
        tuner.recommended_config(ts_spec.job_id),
        tuner.recommended_config(bbp_spec.job_id),
    )


_experiment_cache: Dict[Tuple[int, Optional[HillClimbSettings]], Tuple] = {}


def run_multitenant_experiment(
    seed: int, hill_climb: Optional[HillClimbSettings] = None
) -> Tuple[MultiTenantOutcome, MultiTenantOutcome]:
    """(default outcome, MRONLINE outcome) for one seed.

    Memoized: Figures 14, 15, and 16 all read the same pair of co-runs,
    so the three benchmarks share one execution per seed.
    """
    key = (seed, hill_climb)
    if key not in _experiment_cache:
        default_outcome = co_run(seed)
        ts_cfg, bbp_cfg = tune_multitenant(seed, hill_climb)
        tuned_outcome = co_run(seed, ts_cfg, bbp_cfg)
        _experiment_cache[key] = (default_outcome, tuned_outcome)
    return _experiment_cache[key]


def run_multitenant_over_seeds(
    seeds: List[int],
    hill_climb: Optional[HillClimbSettings] = None,
    max_workers: Optional[int] = None,
) -> List[Tuple[MultiTenantOutcome, MultiTenantOutcome]]:
    """The multi-tenant experiment for every seed, pool-backed.

    Fresh seeds fan out over the process pool; results are written back
    into the memoization cache so Figures 14, 15, and 16 keep sharing
    one pair of co-runs per seed.
    """
    from functools import partial

    from repro.experiments.parallel import map_seeds

    missing = [s for s in seeds if (s, hill_climb) not in _experiment_cache]
    if missing:
        computed = map_seeds(
            partial(run_multitenant_experiment, hill_climb=hill_climb),
            missing,
            max_workers=max_workers,
        )
        for seed, outcome in zip(missing, computed):
            _experiment_cache[(seed, hill_climb)] = outcome
    return [_experiment_cache[(s, hill_climb)] for s in seeds]
