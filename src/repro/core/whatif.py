"""What-if analysis for category-1 parameters (the paper's future work).

Category-1 parameters -- the number of reducers and
``mapreduce.job.reduce.slowstart.completedmaps`` -- cannot change once
a job has started (Section 2.2), so MRONLINE's online loop cannot tune
them; the paper defers them to "simulation tools, such as MRPerf".
This module is that tool: the reproduction's substrate *is* a
simulator, so a what-if engine can clone the deployment, replay the
job under candidate category-1 settings, and recommend the best --
complementing the online tuner, exactly as Section 10 envisions.

The engine deliberately reuses the simulated backend: each candidate
evaluation is an ordinary simulated job run, so whatever configuration
the online tuner recommended can be carried into the what-if runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.configuration import Configuration
from repro.mapreduce.jobspec import JobSpec, WorkloadProfile
from repro.workloads.datasets import DatasetSpec


@dataclass(frozen=True)
class CategoryOneCandidate:
    """One setting of the launch-time-only parameters."""

    num_reducers: int
    slowstart: float = 0.05

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        if not 0.0 <= self.slowstart <= 1.0:
            raise ValueError("slowstart must be in [0, 1]")


@dataclass
class WhatIfOutcome:
    candidate: CategoryOneCandidate
    predicted_duration: float
    succeeded: bool


@dataclass
class CategoryOneAdvice:
    """The advisor's recommendation plus its full evaluation table."""

    best: CategoryOneCandidate
    predicted_duration: float
    evaluations: List[WhatIfOutcome]

    def speedup_over(self, candidate: CategoryOneCandidate) -> float:
        """Fractional improvement of the recommendation vs *candidate*."""
        for outcome in self.evaluations:
            if outcome.candidate == candidate:
                if outcome.predicted_duration <= 0:
                    return 0.0
                return (
                    outcome.predicted_duration - self.predicted_duration
                ) / outcome.predicted_duration
        raise KeyError(f"{candidate} was not evaluated")


def default_candidates(num_maps: int) -> List[CategoryOneCandidate]:
    """A small grid around Hadoop folklore settings.

    Reducer counts bracket the common "1/4 of the maps" rule; slowstart
    contrasts eager shuffle overlap with a late start.
    """
    reducer_options = sorted(
        {
            max(1, num_maps // 8),
            max(1, num_maps // 4),
            max(1, num_maps // 2),
            max(1, num_maps),
        }
    )
    out = []
    for reducers in reducer_options:
        for slowstart in (0.05, 0.8):
            out.append(CategoryOneCandidate(reducers, slowstart))
    return out


class CategoryOneAdvisor:
    """Simulation-backed advisor for reducer count and slowstart."""

    def __init__(self, seed: int = 0, cluster_spec=None) -> None:
        self.seed = seed
        self.cluster_spec = cluster_spec

    def evaluate(
        self,
        profile: WorkloadProfile,
        dataset: DatasetSpec,
        candidate: CategoryOneCandidate,
        base_config: Optional[Configuration] = None,
    ) -> WhatIfOutcome:
        """Run one cloned simulation under *candidate*."""
        from repro.backends.sim import SimBackend

        backend = SimBackend(
            seed=self.seed, cluster_spec=self.cluster_spec, start_monitors=False
        )
        f = dataset.load(backend.hdfs)
        spec = JobSpec(
            name=f"whatif-{profile.name}",
            workload=profile,
            input_path=f.path,
            num_reducers=candidate.num_reducers,
            slowstart=candidate.slowstart,
            base_config=base_config or Configuration(),
        )
        result = backend.run_job(spec)
        return WhatIfOutcome(candidate, result.duration, result.succeeded)

    def advise(
        self,
        profile: WorkloadProfile,
        dataset: DatasetSpec,
        base_config: Optional[Configuration] = None,
        candidates: Optional[Sequence[CategoryOneCandidate]] = None,
    ) -> CategoryOneAdvice:
        """Evaluate every candidate and recommend the fastest."""
        if candidates is None:
            candidates = default_candidates(dataset.num_blocks)
        if not candidates:
            raise ValueError("need at least one candidate")
        evaluations = [
            self.evaluate(profile, dataset, c, base_config) for c in candidates
        ]
        viable = [e for e in evaluations if e.succeeded] or evaluations
        best = min(viable, key=lambda e: e.predicted_duration)
        return CategoryOneAdvice(best.candidate, best.predicted_duration, evaluations)
