"""Failure-aware scheduling end to end: jobs survive injected faults.

Timing anchors (fault-free, seed 0, 4 slaves, 8 maps / 4 reduces):
maps run ~0.5-23s, reduces ~23-67s, and every node hosts both kinds,
so faults pinned inside those windows reliably destroy live work.
"""

import numpy as np

from repro.cluster.node import NodeState
from repro.cluster.topology import ClusterSpec
from repro.core.configuration import Configuration
from repro.core.tuner import OnlineTuner, TuningStrategy
from repro.experiments.harness import SimCluster
from repro.faults import Fault, FaultPlan
from repro.mapreduce.counters import Counter
from repro.mapreduce.jobspec import JobSpec, TaskType, WorkloadProfile
from repro.testing import assert_no_output_leaks
from repro.workloads.datasets import DatasetSpec
from repro.yarn.app_master import FaultToleranceSettings, SpeculationSettings

MB = 1024**2


def small_cluster(seed=0, ft=None):
    return SimCluster(
        seed=seed,
        cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=False,
        fault_tolerance=ft or FaultToleranceSettings(),
    )


def small_spec(sc, blocks=8, reducers=4, slowstart=0.05):
    DatasetSpec("tiny", num_blocks=blocks).load(sc.hdfs, "/in")
    profile = WorkloadProfile(
        name="t", map_output_ratio=1.0, map_output_record_size=100.0,
        map_output_noise=0.0, partition_skew=0.0,
        map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
    )
    return JobSpec(
        name="t", workload=profile, input_path="/in", num_reducers=reducers,
        base_config=Configuration(), slowstart=slowstart,
    )


def run_with_faults(sc, plan, max_events=10_000_000):
    sc.inject_faults(plan=plan)
    am = sc.submit(small_spec(sc))
    result = sc.sim.run_until_complete(am.completion, max_events=max_events)
    return am, result


class TestPreemption:
    def test_killed_attempts_are_reexecuted(self):
        sc = small_cluster()
        plan = FaultPlan(
            (
                Fault(time=10.0, kind="container_kill", node_id=0),
                Fault(time=30.0, kind="container_kill", node_id=1),
            )
        )
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert result.counters[Counter.KILLED_TASK_ATTEMPTS] >= 2
        assert result.failure_reasons.get("preempted", 0) >= 2
        assert_no_output_leaks(sc.hdfs)

    def test_every_task_still_produces_output(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=30.0, kind="container_kill", node_id=2, count=2),))
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        ok_reds = [s for s in result.stats_of(TaskType.REDUCE) if not s.failed]
        assert len(ok_reds) == 4
        assert len(sc.hdfs.list_prefix("/out/")) == 4


class TestNodeCrash:
    def test_job_survives_node_loss(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=30.0, kind="node_crash", node_id=2),))
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert sc.cluster.node(2).state is NodeState.LOST
        assert result.failure_reasons.get("node_lost", 0) >= 1
        assert_no_output_leaks(sc.hdfs)

    def test_no_committed_output_from_lost_attempts(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=30.0, kind="node_crash", node_id=2),))
        _, result = run_with_faults(sc, plan)
        # Winners that started after the crash window cannot be on the
        # dead node; earlier winners may be (their output is committed).
        for s in result.stats_of(TaskType.REDUCE):
            if not s.failed and s.start_time > 45.0:
                assert s.node_id != 2


class TestBlacklisting:
    def test_all_nodes_blacklisted_still_schedules(self, monkeypatch):
        # Threshold 1 + a kill on every node blacklists the whole
        # cluster; the scheduler's escape hatch must keep the job alive.
        monkeypatch.setattr("repro.yarn.app_master.BLACKLIST_THRESHOLD", 1)
        sc = small_cluster()
        plan = FaultPlan(
            tuple(
                Fault(time=26.0 + i, kind="container_kill", node_id=i)
                for i in range(4)
            )
        )
        am, result = run_with_faults(sc, plan)
        assert len(am.blacklisted_nodes) == 4
        assert result.succeeded
        assert_no_output_leaks(sc.hdfs)

    def test_below_threshold_no_blacklist(self):
        sc = small_cluster()  # default threshold 3
        plan = FaultPlan((Fault(time=30.0, kind="container_kill", node_id=1),))
        am, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert am.blacklisted_nodes == set()


class TestSpeculation:
    def straggler_setup(self):
        ft = FaultToleranceSettings(
            speculation=SpeculationSettings(
                interval=5.0, slowness_factor=1.3, min_completed=1
            )
        )
        sc = small_cluster(ft=ft)
        # Degrade one node early and hard: whatever lands there crawls
        # at 5% speed and becomes the job's last running task.
        plan = FaultPlan(
            (
                Fault(
                    time=1.0, kind="degrade", node_id=3,
                    cpu_factor=0.05, disk_factor=0.05,
                ),
            )
        )
        return sc, plan

    def test_backup_attempt_rescues_straggler(self):
        sc, plan = self.straggler_setup()
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert result.counters[Counter.SPECULATIVE_TASK_ATTEMPTS] >= 1
        assert_no_output_leaks(sc.hdfs)

    def test_loser_is_killed_not_failed(self):
        sc, plan = self.straggler_setup()
        _, result = run_with_faults(sc, plan)
        # The slow primary (or the backup, in a photo finish) dies with
        # kind "speculation": killed, never counted as a task failure.
        assert result.failure_reasons.get("speculation", 0) >= 1
        assert result.counters[Counter.FAILED_TASK_ATTEMPTS] == 0

    def test_backup_lands_off_the_slow_node(self):
        sc, plan = self.straggler_setup()
        _, result = run_with_faults(sc, plan)
        spec_stats = [
            s
            for t in (TaskType.MAP, TaskType.REDUCE)
            for s in result.stats_of(t)
            if s.speculative
        ]
        assert spec_stats
        assert all(s.node_id != 3 for s in spec_stats)

    def test_speculation_off_by_default(self):
        sc = small_cluster()  # FaultToleranceSettings() -> speculation None
        plan = FaultPlan(
            (
                Fault(
                    time=1.0, kind="degrade", node_id=3,
                    cpu_factor=0.3, disk_factor=0.3,
                ),
            )
        )
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert result.counters[Counter.SPECULATIVE_TASK_ATTEMPTS] == 0


class TestWaveGateRetries:
    """Kills under the aggressive tuner's wave gate.

    A killed attempt must still be counted admitted and reported, or the
    next wave never opens and the job never completes.
    """

    def run_tuned(self, plan):
        sc = small_cluster()
        sc.inject_faults(plan=plan)
        tuner = OnlineTuner(TuningStrategy.AGGRESSIVE, rng=np.random.default_rng(0))
        am = tuner.submit(sc, small_spec(sc))
        result = sc.sim.run_until_complete(am.completion, max_events=10_000_000)
        assert result.succeeded
        assert result.counters[Counter.KILLED_TASK_ATTEMPTS] >= 1
        ok_maps = [s for s in result.stats_of(TaskType.MAP) if not s.failed]
        assert len(ok_maps) == 8
        for state in am.gate.job.search_states.values():
            assert state.admitted == state.stats_seen
            assert state.admission_queue == []
        assert_no_output_leaks(sc.hdfs)

    def test_wave_slots_survive_preemption(self):
        self.run_tuned(
            FaultPlan(
                (
                    Fault(time=5.0, kind="container_kill", node_id=0, count=2),
                    Fault(time=30.0, kind="container_kill", node_id=1),
                )
            )
        )

    def test_wave_gate_with_node_crash(self):
        self.run_tuned(FaultPlan((Fault(time=30.0, kind="node_crash", node_id=1),)))


class TestPermanentFailure:
    def test_env_retry_budget_exhaustion_fails_job_cleanly(self, monkeypatch):
        # Kill the same node's containers more often than the retry
        # budget allows; the job must *finish* (not hang) and report
        # the failure instead of silently succeeding.
        monkeypatch.setattr("repro.yarn.app_master.MAX_ENV_RETRIES", 1)
        sc = small_cluster()
        plan = FaultPlan(
            tuple(
                Fault(time=t, kind="container_kill", node_id=n, count=4)
                for t in (26.0, 32.0, 38.0, 44.0, 50.0, 56.0)
                for n in range(4)
            )
        )
        _, result = run_with_faults(sc, plan)
        assert not result.succeeded
        assert result.failure_reasons.get("preempted", 0) >= 1
        assert_no_output_leaks(sc.hdfs)
