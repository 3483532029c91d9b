"""The five workloads of the repository benchmark.

A workload builds its inputs from the seed when it is constructed; that
is the set-up the benchmark charges to ``setup_s``.  :meth:`units` then
yields one ``(name, run, finish)`` triple per unit of work -- a job, a
tuning session or a service stream.  ``run()`` is the only timed call:
it drives the program through its public drivers and returns a handle.
``finish(handle)`` runs untimed afterwards.  It checks the outputs and
reads counts from public state (:class:`UnitResult`).

Nothing here edits or patches ``repro``; the sim units rebuild the same
calls the public drivers make (``run_default``,
``run_aggressive_tuning``, ``execute_request``), so the benchmark keeps
a handle on the cluster whose state it reads.  ``test_e2e_bench.py``
checks that they agree with those drivers.
"""

from __future__ import annotations

import hashlib
import os
import re
import statistics
from collections import Counter as Tally
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.backends.local import (
    LocalProcessBackend,
    generate_corpus,
    knobs_from_config,
    local_job_spec,
)
from repro.backends.local.corpus import corpus_splits
from repro.backends.local.worker import (
    MapTaskSpec,
    ReduceTaskSpec,
    run_map_task,
    run_reduce_task,
)
from repro.backends.sim import SimBackend
from repro.core.configuration import Configuration
from repro.core.hill_climbing import HillClimbSettings
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.experiments.harness import SimCluster
from repro.mapreduce.counters import Counter
from repro.mapreduce.jobspec import TaskType
from repro.service import ServiceConfig, default_tenants, generate_arrivals, run_service
from repro.sim.rng import derive_seed
from repro.workloads.suite import case_by_name, make_job_spec, service_case, shrink_case
from repro.yarn.app_master import (
    ENVIRONMENTAL_KINDS,
    FaultToleranceSettings,
    SpeculationSettings,
)

SCALES = ("full", "smoke")

#: ``repro serve`` defaults (3 tenants x 70 jobs, seed 1) digest, as
#: pinned in ``tests/service/test_service.py``.
SERVICE_DIGEST_SEED1 = "161b01c36c4865849a77b827d76da7740a54670fa1acf168fbfaea3066e49571"


@dataclass
class UnitResult:
    """What one unit reports after its outputs are checked."""

    name: str
    ok: bool
    #: Hash of the unit's deterministic outputs; must repeat each round.
    digest: str
    #: Task attempts the unit ran (the ``tasks_per_s`` numerator).
    attempts: int
    #: Simulated outcomes of the unit (sim seconds, Eq-1 costs).
    sim: Dict[str, float] = field(default_factory=dict)
    #: Public-state counts, summed over a round's units.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Raw per-task samples (local task wall times), concatenated.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    error: str = ""


Unit = Tuple[str, Callable[[], object], Callable[[object], UnitResult]]


def digest_of(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def sim_counts(sc: SimCluster) -> Dict[str, float]:
    """Per-layer counts of one simulated cluster, from public state."""
    stats = sc.monitor.task_stats
    committed = [s for s in stats if not s.failed]
    killed = sum(1 for s in stats if s.failed and s.failure_kind in ENVIRONMENTAL_KINDS)
    bus = sc.telemetry.counters
    flows = sc.cluster.network.scheduler.completed_flows + sum(
        node.cpu.completed_flows + node.disk.completed_flows for node in sc.cluster.nodes
    )
    return {
        "sim.events": sc.sim.events_executed,
        "sim.resources.flows": flows,
        "monitor.samples": len(sc.monitor.node_samples),
        "yarn.attempts": len(stats),
        "yarn.committed": len(committed),
        "yarn.failed_attempts": len(stats) - len(committed) - killed,
        "yarn.killed_attempts": killed,
        "mapreduce.spilled_records": sum(s.spilled_records for s in committed),
        "mapreduce.shuffled_gb": sum(s.shuffled_bytes for s in committed) / 1e9,
        "mapreduce.fetch_retries": bus.get("shuffle.fetch_retries", 0.0),
        "faults.injected": len(sc.fault_injector.applied) if sc.fault_injector else 0,
    }


def job_unit(name: str, result, sc: SimCluster, extra: object = ()) -> UnitResult:
    """A simulated job's result: it must succeed and replay exactly."""
    return UnitResult(
        name=name,
        ok=result.succeeded,
        digest=digest_of(
            result.succeeded,
            result.duration,
            result.counters.snapshot(),
            sorted(result.failure_reasons.items()),
            extra,
        ),
        attempts=len(result.task_stats),
        sim={"sim_job_s": result.duration},
        counts=sim_counts(sc),
        error="" if result.succeeded else f"job failed: {result.failure_summary()}",
    )


def paper_case(name: str, scale: str):
    """A Table-3 case at paper scale, or shrunk to 40 blocks for smoke runs."""
    case = case_by_name(name)
    return case if scale == "full" else shrink_case(case, 40, 10)


class SimWorkload:
    """A simulated workload: it holds no processes or files to release."""

    def close(self) -> None:
        pass


class PaperDefault(SimWorkload):
    """The paper's baseline: default configuration, FIFO, no tuner."""

    name = "paper-default"
    cases = ("terasort", "bigram-freebase")

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.jobs = [(s, paper_case(n, scale)) for s in (seed, seed + 1) for n in self.cases]

    def units(self) -> Iterator[Unit]:
        for seed, case in self.jobs:
            name = f"{case.name}@{seed}"

            def run(case=case, seed=seed):
                sc = SimCluster(seed=seed)
                return sc, sc.run_job(make_job_spec(case, sc.hdfs))

            yield name, run, lambda handle, name=name: job_unit(name, handle[1], handle[0])


class PaperTuned(PaperDefault):
    """The expedited protocol's aggressive tuning session (Algorithm 1)."""

    name = "paper-tuned"
    cases = ("terasort", "wordcount-wikipedia", "bigram-freebase")

    def units(self) -> Iterator[Unit]:
        for seed, case in self.jobs:
            name = f"{case.name}@{seed}"

            def run(case=case, seed=seed):
                sc = SimCluster(seed=seed)
                spec = make_job_spec(case, sc.hdfs)
                tuner = OnlineTuner(
                    TuningStrategy.AGGRESSIVE,
                    settings=TunerSettings(hill_climb=HillClimbSettings()),
                    rng=np.random.default_rng(derive_seed(seed, "tuner", case.name)),
                )
                result = sc.sim.run_until_complete(tuner.submit(sc, spec).completion)
                return sc, result, tuner, spec.job_id

            yield name, run, lambda handle, name=name: self._finish(name, *handle)

    @staticmethod
    def _finish(name, sc, result, tuner, job_id) -> UnitResult:
        searches = tuner.session_summary(job_id)["searches"]
        recommended = sorted(tuner.recommended_config(job_id).as_dict().items())
        costs = {t: s["best_cost"] for t, s in sorted(searches.items())}
        unit = job_unit(name, result, sc, extra=(recommended, costs))
        unit.sim["tuned_best_cost"] = costs["map"]
        return unit


class ServiceStream(SimWorkload):
    """``repro serve`` defaults: 3 tenants, open-loop arrivals, warm starts."""

    name = "service-stream"

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        jobs = 70 if scale == "full" else 6
        self.pinned = scale == "full"
        self.configs = [
            ServiceConfig(tenants=default_tenants(3), jobs_per_tenant=jobs, seed=s)
            for s in (seed, seed + 1)
        ]

    def units(self) -> Iterator[Unit]:
        for config in self.configs:
            name = f"stream@{config.seed}"

            def run(config=config):
                backend = SimBackend(seed=config.seed, scheduler="fair")
                return backend.cluster, run_service(config, backend=backend)

            yield name, run, lambda handle, name=name, config=config: self._finish(
                name, config, *handle
            )

    def _finish(self, name, config, sc, report) -> UnitResult:
        arrivals = generate_arrivals(config.tenants, config.jobs_per_tenant, config.seed)
        # Each task commits exactly once when every job succeeds: the
        # report itself does not carry per-job success.
        tasks = sum(
            service_case(a.profile).num_maps + service_case(a.profile).num_reducers
            for a in arrivals
        )
        counts = sim_counts(sc)
        errors = []
        if report.jobs_completed != len(arrivals):
            errors.append(f"{report.jobs_completed}/{len(arrivals)} jobs completed")
        if counts["yarn.committed"] != tasks:
            errors.append(f"{counts['yarn.committed']:g} task commits for {tasks} tasks")
        digest = report.digest()
        if self.pinned and config.seed == 1 and digest != SERVICE_DIGEST_SEED1:
            errors.append(f"report digest {digest[:12]} is not the pinned seed-1 digest")
        counts.update(
            {
                "service.jobs": report.jobs_completed,
                "service.queue_delay_sum_sim_s": sum(
                    t.mean_queue_delay * t.jobs for t in report.tenants
                ),
                "service.preemptions": report.preemptions,
                "service.warm_sessions": report.warm_sessions,
            }
        )
        return UnitResult(
            name=name,
            ok=not errors,
            digest=digest,
            attempts=int(counts["yarn.attempts"]),
            sim={
                "p50_latency_sim_s": report.p50_latency,
                "p95_latency_sim_s": report.p95_latency,
                "slo_attainment": report.slo_attainment,
            },
            counts=counts,
            error="; ".join(errors),
        )


class ShuffleFaults(SimWorkload):
    """Shrunk TeraSort under three network faults, conservative tuner.

    Each job is ``execute_request(RunRequest.build("terasort", seed,
    tuning="conservative", num_blocks=100, num_reducers=25,
    faults=...))``.  The fault plan is drawn from the seed, and one
    plan's host cost differs from the next by up to a third, so a round
    runs six seeds.  The plan at paper scale does not finish in minutes.
    """

    name = "shuffle-faults"
    faults = {"link_degraded": 1, "link_flaky": 1, "rack_partitions": 1, "horizon": 200.0}

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        blocks, reducers, seeds = (100, 25, 6) if scale == "full" else (40, 10, 2)
        self.case = shrink_case(case_by_name("terasort"), blocks, reducers)
        self.seeds = range(seed, seed + seeds)

    def units(self) -> Iterator[Unit]:
        for seed in self.seeds:
            name = f"{self.case.name}@{seed}"

            def run(seed=seed):
                backend = SimBackend(
                    seed=seed,
                    fault_tolerance=FaultToleranceSettings(speculation=SpeculationSettings()),
                )
                plan = backend.inject_faults(**self.faults)
                spec = make_job_spec(self.case, backend.hdfs)
                tuner = OnlineTuner(
                    TuningStrategy.CONSERVATIVE,
                    rng=np.random.default_rng(derive_seed(seed, "tuner", self.case.name)),
                )
                return backend.cluster, backend.wait(backend.attach_tuner(tuner, spec)), plan

            yield name, run, lambda handle, name=name: job_unit(
                name, handle[1], handle[0], extra=tuple(handle[2].describe())
            )


_WORD = re.compile(r"[a-z']+")


def local_reference(workload: str, corpus: str) -> Dict[str, str]:
    """The expected reduce output, computed in plain Python."""
    counts: Tally = Tally()
    postings: Dict[str, set] = {}
    for path in corpus_splits(corpus):
        doc = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            words = _WORD.findall(fh.read().lower())
        counts.update(words)
        for word in set(words):
            postings.setdefault(word, set()).add(doc)
    if workload == "wordcount":
        return {w: str(n) for w, n in counts.items()}
    return {w: ",".join(sorted(docs)) for w, docs in postings.items()}


class LocalJobs:
    """A real worker process: wordcount, then inverted-index, on one corpus."""

    name = "local-jobs"
    jobs = ("wordcount", "inverted-index")
    reducers = 4
    #: The pair runs this many times a round: one pair lasts ~1.5 s, and
    #: real processes on a shared host vary by 10-15% from job to job.
    repeats = 3

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        splits, split_kb = (32, 256) if scale == "full" else (4, 32)
        self.workdir = workdir
        self.corpus = os.path.join(workdir, "corpus")
        generate_corpus(self.corpus, num_splits=splits, split_kb=split_kb, seed=seed)
        # One worker: the round process is pinned to one CPU (rounds.py),
        # and the worker inherits that CPU, so the reference loop times
        # the CPU the tasks run on.
        self.slots = 1
        self.backend = LocalProcessBackend(
            workspace=os.path.join(workdir, "jobs"), slots=self.slots, seed=seed
        )
        #: Expected outputs by job, computed lazily (outside timing).
        self.references: Dict[str, Dict[str, str]] = {}
        # Spawn the worker pool now, so pool start-up counts as set-up.
        warm = os.path.join(workdir, "warmup")
        generate_corpus(warm, num_splits=1, split_kb=1, seed=seed)
        self.backend.run_job(local_job_spec("grep", warm, 1, name="warmup"))

    def units(self) -> Iterator[Unit]:
        for repeat in range(self.repeats):
            for workload in self.jobs:
                spec = local_job_spec(
                    workload, self.corpus, self.reducers, name=f"{workload}-{repeat}"
                )

                def run(spec=spec):
                    return self.backend.run_job(spec)

                yield spec.name, run, lambda result, w=workload, spec=spec: self._finish(
                    w, spec, result
                )

    def _finish(self, workload: str, spec, result) -> UnitResult:
        if workload not in self.references:
            self.references[workload] = local_reference(workload, self.corpus)
        output = self.backend.read_output(spec)
        errors = [] if result.succeeded else [f"job failed: {result.failure_summary()}"]
        if output != self.references[workload]:
            wrong = sum(
                1
                for k in output.keys() | self.references[workload].keys()
                if output.get(k) != self.references[workload].get(k)
            )
            errors.append(f"{wrong} output keys differ from the reference")
        ok_stats = [s for s in result.task_stats if not s.failed]
        c = result.counters
        counts = {
            "local.attempts": len(result.task_stats),
            "local.task_wall_s": sum(s.end_time - s.start_time for s in ok_stats),
            "local.task_cpu_s": sum(s.cpu_seconds for s in ok_stats),
            "local.slot_s": self.slots * result.duration,
            "local.spilled_records": c.get(Counter.SPILLED_RECORDS),
            "local.merge_passes": c.get(Counter.MERGE_PASSES),
            "local.shuffled_mb": c.get(Counter.SHUFFLED_BYTES) / 1e6,
        }
        samples = {
            f"local.{t.value}_task_s": [
                s.end_time - s.start_time for s in ok_stats if s.task_type is t
            ]
            for t in (TaskType.MAP, TaskType.REDUCE)
        }
        return UnitResult(
            name=spec.name,
            ok=not errors,
            digest=digest_of(sorted(output.items())),
            attempts=len(result.task_stats),
            counts=counts,
            samples=samples,
            error="; ".join(errors),
        )

    def inprocess_tasks(self) -> Iterator[Callable[[], object]]:
        """Every map and reduce task of both jobs, as in-process calls.

        The traced run profiles these to split task time by phase; the
        worker processes of the real jobs are outside the profiler.
        """
        config = Configuration()
        map_knobs = knobs_from_config(config, TaskType.MAP)
        reduce_knobs = knobs_from_config(config, TaskType.REDUCE)
        splits = corpus_splits(self.corpus)
        for workload in self.jobs:
            job_dir = os.path.join(self.workdir, "inprocess", workload)
            for i, path in enumerate(splits):
                yield lambda spec=MapTaskSpec(
                    f"inprocess-{workload}", i, 0, path, workload, self.reducers,
                    job_dir, map_knobs, 0.0,
                ): run_map_task(spec)
            for p in range(self.reducers):
                yield lambda spec=ReduceTaskSpec(
                    f"inprocess-{workload}", p, 0, len(splits), workload, job_dir,
                    reduce_knobs, 0.0,
                ): run_reduce_task(spec)

    def close(self) -> None:
        self.backend.close()


WORKLOADS = {
    w.name: w for w in (PaperDefault, PaperTuned, ServiceStream, ShuffleFaults, LocalJobs)
}


def summarize(units: List[UnitResult]) -> Dict[str, float]:
    """Each simulated outcome's median over a round's units."""
    return {k: statistics.median(u.sim[k] for u in units) for k in units[0].sim} if units else {}


def make_workload(name: str, seed: int, scale: str, workdir: str):
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}, want one of {SCALES}")
    return WORKLOADS[name](seed, scale, workdir)
