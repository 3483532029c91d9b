"""Aggressively tuned jobs under fault plans, shared by the fault suites.

Each scenario runs one small job under the aggressive tuner (Algorithm 1
with m = n = 4) and one fault plan, and returns a :class:`TunedRun`.
The fault suites assert on the recovery behaviour; the quarantine pins
(``tests/core/test_quarantine_pins.py``) hash what the tuner decided.
"""

from typing import Callable, Dict, List, NamedTuple

import numpy as np

from repro.cluster.topology import ClusterSpec
from repro.core.hill_climbing import HillClimbSettings
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.experiments.harness import SimCluster
from repro.faults import Fault, FaultPlan
from repro.mapreduce.jobspec import JobSpec, WorkloadProfile
from repro.workloads.datasets import DatasetSpec
from repro.yarn.app_master import FaultToleranceSettings, SpeculationSettings

MB = 1024**2


class TunedRun(NamedTuple):
    sc: SimCluster
    tuner: OnlineTuner
    spec: JobSpec
    result: object
    events: List[object]


def small_cluster(seed=0, start_monitors=False):
    return SimCluster(
        seed=seed,
        cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=start_monitors,
        fault_tolerance=FaultToleranceSettings(),
    )


def search_spec(sc, blocks=36, reducers=8):
    """Load a *blocks*-block input and return a noisy, skewed job on it."""
    DatasetSpec("d", num_blocks=blocks).load(sc.hdfs, "/in")
    profile = WorkloadProfile(
        name="t", map_output_ratio=1.0, map_output_record_size=100.0,
        map_output_noise=0.02, partition_skew=0.1,
        map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
    )
    return JobSpec(
        name="t", workload=profile, input_path="/in", num_reducers=reducers
    )


def make_tuner(strategy=TuningStrategy.AGGRESSIVE):
    return OnlineTuner(
        strategy,
        settings=TunerSettings(
            hill_climb=HillClimbSettings(m=4, n=4, global_search_limit=2),
            use_knowledge_base=False,
        ),
        rng=np.random.default_rng(0),
    )


def run_job(sc, spec, strategy=TuningStrategy.AGGRESSIVE) -> TunedRun:
    """Submit *spec* under a fresh tuner and run it to completion."""
    events: List[object] = []
    sc.telemetry.subscribe(events.append, categories=("tuner", "fault", "yarn"))
    tuner = make_tuner(strategy)
    am = tuner.submit(sc, spec)
    result = sc.sim.run_until_complete(am.completion, max_events=40_000_000)
    return TunedRun(sc, tuner, spec, result, events)


def crash_plan(time=80.0, duration=60.0):
    return FaultPlan(
        (Fault(time=time, kind="tuner_crash", node_id=0, duration=duration),)
    )


def run_tuned(plan=None, strategy=TuningStrategy.AGGRESSIVE) -> TunedRun:
    """36 maps / 8 reduces on 4 slaves under *plan*."""
    sc = small_cluster()
    if plan is not None:
        sc.inject_faults(plan=plan)
    return run_job(sc, search_spec(sc), strategy)


def run_link_flaky() -> TunedRun:
    """A 400 s flaky link inflates reduce fetches: a fetch-suspect wave."""
    sc = small_cluster()
    sc.inject_faults(
        plan=FaultPlan(
            (Fault(time=5.0, kind="link_flaky", node_id=1,
                   fail_prob=0.6, duration=400.0),)
        )
    )
    return run_job(sc, search_spec(sc, blocks=60, reducers=12))


def run_full_churn() -> TunedRun:
    """Decommission, join and spot preempt on 6 slaves mid-search."""
    sc = SimCluster(
        seed=3,
        cluster_spec=ClusterSpec(num_slaves=6, racks=(3, 3)),
        start_monitors=False,
        fault_tolerance=FaultToleranceSettings(
            speculation=SpeculationSettings()
        ),
    )
    sc.inject_faults(decommissions=1, joins=1, spot_preempts=1, horizon=35.0)
    return run_job(sc, search_spec(sc, blocks=24, reducers=8))


def run_monitor_outage() -> TunedRun:
    """The central monitor is dark from t=30 to t=70."""
    return run_tuned(
        FaultPlan(
            (Fault(time=30.0, kind="monitor_outage", node_id=0, duration=40.0),)
        )
    )


#: Every tuned scenario that reaches a quarantine path, by name.
QUARANTINE_SCENARIOS: Dict[str, Callable[[], TunedRun]] = {
    "link_flaky": run_link_flaky,
    "full_churn": run_full_churn,
    "monitor_outage": run_monitor_outage,
    "crash_mid_search": lambda: run_tuned(crash_plan()),
    "crash_bootstrap": lambda: run_tuned(crash_plan(time=1.0, duration=30.0)),
}
