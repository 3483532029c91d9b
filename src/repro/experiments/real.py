"""The ``real`` experiment: tune actual worker processes end to end.

This is the paper's loop with the simulator swapped out: the
:class:`~repro.backends.local.LocalProcessBackend` runs real mapper and
reducer processes over a local corpus, the central monitor aggregates
real wall-clock :class:`TaskStats`, and the gray-box tuner steers waves
of real task launches.  The A/B mirrors ``single-run``: one pass on the
stock configuration, one pass co-executed with the tuner, same corpus.

Timings here are real and therefore noisy -- this driver reports the
tuner's *cost trajectory* (Eq. 1 over measured utilization and spills)
alongside wall-clock, because cost is the quantity the climber
optimizes and the one that moves reliably at toy scale.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends.local import (
    LOCAL_WORKLOADS,
    LocalProcessBackend,
    generate_corpus,
    local_job_spec,
)
from repro.core.hill_climbing import HillClimbSettings
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.mapreduce.counters import Counter
from repro.sim.rng import derive_seed
from repro.yarn.app_master import JobResult

#: Search budget sized for real execution: small enough that a toy
#: corpus still yields several complete waves per task type.
REAL_SEARCH = HillClimbSettings(m=6, n=4, global_search_limit=1)


@dataclass
class RealRunResult:
    """One default-vs-tuned A/B on the local-process backend."""

    workload: str
    seed: int
    tuning: str
    num_splits: int
    num_reducers: int
    default_time: float
    tuned_time: float
    default_spills: float
    tuned_spills: float
    #: Completed tuning waves per task type ("map"/"reduce").
    waves: Dict[str, int] = field(default_factory=dict)
    #: (wave, cost) points of the map-side search, in wave order.
    cost_trajectory: List[Tuple[int, float]] = field(default_factory=list)
    #: Eq-1 cost of the first and best evaluated map-side samples.
    first_cost: Optional[float] = None
    best_cost: Optional[float] = None
    #: A few headline knobs from the tuner's final recommendation.
    recommended: Dict[str, float] = field(default_factory=dict)
    succeeded: bool = True

    @property
    def cost_improvement(self) -> float:
        """Relative Eq-1 cost drop from the first sampled wave to the best."""
        if not self.first_cost or self.best_cost is None:
            return 0.0
        return (self.first_cost - self.best_cost) / self.first_cost


def _strategy(tuning: str) -> TuningStrategy:
    if tuning == "aggressive":
        return TuningStrategy.AGGRESSIVE
    if tuning == "conservative":
        return TuningStrategy.CONSERVATIVE
    raise ValueError(f"unknown tuning mode {tuning!r}")


def run_real_case(
    workload: str = "wordcount",
    seed: int = 1,
    tuning: str = "aggressive",
    num_splits: int = 24,
    split_kb: int = 32,
    num_reducers: int = 4,
    slots: Optional[int] = None,
    workspace: Optional[str] = None,
) -> RealRunResult:
    """Run the default-vs-tuned A/B for one workload on real processes."""
    if workload not in LOCAL_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}, want one of {sorted(LOCAL_WORKLOADS)}"
        )
    own_workspace = workspace is None
    if own_workspace:
        workspace = tempfile.mkdtemp(prefix="repro-real-")
    corpus_dir = os.path.join(workspace, "corpus")
    generate_corpus(corpus_dir, num_splits=num_splits, split_kb=split_kb, seed=seed)

    default_result = _run_default(
        workload, corpus_dir, num_reducers, workspace, slots, seed
    )
    tuned_result, tuner, job_id = _run_tuned(
        workload, corpus_dir, num_reducers, workspace, slots, seed, tuning
    )

    summary = tuner.session_summary(job_id)
    searches = summary.get("searches", {})
    waves = {ttype: s.get("waves", 0) for ttype, s in searches.items()}
    map_search = searches.get("map", {})
    trajectory = [tuple(p) for p in map_search.get("cost_trajectory", [])]
    recommended: Dict[str, float] = {}
    try:
        rec = tuner.recommended_config(job_id)
    except Exception:
        rec = None
    if rec is not None:
        for name in (
            "mapreduce.task.io.sort.mb",
            "mapreduce.map.sort.spill.percent",
            "mapreduce.task.io.sort.factor",
            "mapreduce.reduce.shuffle.parallelcopies",
        ):
            try:
                recommended[name] = rec[name]
            except KeyError:
                pass

    result = RealRunResult(
        workload=workload,
        seed=seed,
        tuning=tuning,
        num_splits=num_splits,
        num_reducers=num_reducers,
        default_time=default_result.duration,
        tuned_time=tuned_result.duration,
        default_spills=default_result.counters.get(Counter.SPILLED_RECORDS),
        tuned_spills=tuned_result.counters.get(Counter.SPILLED_RECORDS),
        waves=waves,
        cost_trajectory=trajectory,
        first_cost=trajectory[0][1] if trajectory else None,
        best_cost=map_search.get("best_cost"),
        recommended=recommended,
        succeeded=default_result.succeeded and tuned_result.succeeded,
    )
    if own_workspace:
        import shutil

        shutil.rmtree(workspace, ignore_errors=True)
    return result


def _run_default(
    workload: str,
    corpus_dir: str,
    num_reducers: int,
    workspace: str,
    slots: Optional[int],
    seed: int,
) -> JobResult:
    spec = local_job_spec(
        workload, corpus_dir, num_reducers, name=f"{workload}-default"
    )
    with LocalProcessBackend(
        workspace=os.path.join(workspace, "default"), slots=slots, seed=seed
    ) as backend:
        return backend.run_job(spec)


def _run_tuned(
    workload: str,
    corpus_dir: str,
    num_reducers: int,
    workspace: str,
    slots: Optional[int],
    seed: int,
    tuning: str,
) -> Tuple[JobResult, OnlineTuner, str]:
    spec = local_job_spec(
        workload, corpus_dir, num_reducers, name=f"{workload}-{tuning}"
    )
    tuner = OnlineTuner(
        _strategy(tuning),
        settings=TunerSettings(hill_climb=REAL_SEARCH),
        rng=np.random.default_rng(derive_seed(seed, "real-tuner", workload)),
    )
    with LocalProcessBackend(
        workspace=os.path.join(workspace, "tuned"), slots=slots, seed=seed
    ) as backend:
        handle = backend.attach_tuner(tuner, spec)
        result = backend.wait(handle)
    return result, tuner, spec.job_id


def render_real_report(result: RealRunResult) -> str:
    """Human-readable report for the CLI."""
    lines = [
        f"workload: {result.workload}  seed={result.seed}  tuning={result.tuning}"
        f"  splits={result.num_splits}  reducers={result.num_reducers}",
        f"  default : {result.default_time:7.2f} s"
        f"  ({result.default_spills:,.0f} spilled records)",
        f"  tuned   : {result.tuned_time:7.2f} s"
        f"  ({result.tuned_spills:,.0f} spilled records)",
        "  waves   : "
        + ", ".join(f"{t}={n}" for t, n in sorted(result.waves.items())),
    ]
    if result.cost_trajectory:
        path = " -> ".join(f"{c:.3f}" for _w, c in result.cost_trajectory)
        lines.append(f"  map cost: {path}  ({100 * result.cost_improvement:+.1f}%)")
    if result.recommended:
        lines.append("  recommended map-side config:")
        for name, value in sorted(result.recommended.items()):
            lines.append(f"    {name} = {value:g}")
    if not result.succeeded:
        lines.append("  STATUS  : FAILED")
    return "\n".join(lines)
