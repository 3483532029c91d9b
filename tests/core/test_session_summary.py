"""Tests for the tuning-session summary."""

import numpy as np

from repro.cluster.topology import ClusterSpec
from repro.core.hill_climbing import HillClimbSettings
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.experiments.harness import SimCluster
from repro.mapreduce.jobspec import JobSpec, WorkloadProfile
from repro.workloads.datasets import DatasetSpec


def run_session(strategy):
    sc = SimCluster(
        seed=0, cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=False,
    )
    DatasetSpec("sumry", num_blocks=40).load(sc.hdfs, "/in")
    profile = WorkloadProfile(
        name="t", map_output_ratio=1.0, map_output_record_size=100.0
    )
    spec = JobSpec(name="t", workload=profile, input_path="/in", num_reducers=8)
    tuner = OnlineTuner(
        strategy,
        settings=TunerSettings(
            hill_climb=HillClimbSettings(m=6, n=4, global_search_limit=1),
            use_knowledge_base=False,
        ),
        rng=np.random.default_rng(0),
    )
    am = tuner.submit(sc, spec)
    sc.sim.run_until_complete(am.completion)
    return tuner.session_summary(spec.job_id)


def test_aggressive_summary_shape():
    summary = run_session(TuningStrategy.AGGRESSIVE)
    assert summary["strategy"] == "aggressive"
    assert set(summary["searches"]) == {"map", "reduce"}
    map_search = summary["searches"]["map"]
    assert map_search["tasks_evaluated"] == 40
    assert map_search["samples_proposed"] > 0
    assert "mapreduce.task.io.sort.mb" in summary["recommended"]


def test_conservative_summary_shape(monkeypatch):
    monkeypatch.setattr("repro.core.tuner.CONSERVATIVE_WINDOW", 6)
    summary = run_session(TuningStrategy.CONSERVATIVE)
    assert summary["strategy"] == "conservative"
    assert summary["tasks_observed"]["map"] == 40
    assert summary["rule_adjustments"] >= 0
