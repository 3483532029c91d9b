"""End-to-end shuffle fetch recovery under network faults.

Covers the whole chain the network-fault model adds: flaky links make
per-fetch attempts fail, the reducer's retry loop absorbs transient
failures (timeout + exponential backoff + penalty box), exhausted
sources are reported to the app master, enough reports get a map
output declared lost and its map re-executed, and the tuner discounts
or rolls back waves whose measurements the faults inflated.
"""

import numpy as np

from repro.cluster.topology import ClusterSpec
from repro.core.configuration import Configuration
from repro.core.hill_climbing import GrayBoxHillClimber, HillClimbSettings
from repro.core.parameters import PARAMETER_SPACE
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.experiments.harness import SimCluster
from repro.faults import Fault, FaultPlan
from repro.mapreduce.jobspec import JobSpec, TaskId, TaskType, WorkloadProfile
from repro.monitor.statistics import TaskStats
from repro.telemetry.events import MapOutputLost, TunerRollback
from repro.testing import assert_no_output_leaks
from repro.workloads.datasets import DatasetSpec
from repro.yarn.app_master import FaultToleranceSettings
from tests.faults.tuned_scenarios import run_link_flaky

MB = 1024**2


def small_cluster(seed=0, ft=None):
    return SimCluster(
        seed=seed,
        cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=False,
        fault_tolerance=ft or FaultToleranceSettings(),
    )


def small_spec(sc, blocks=8, reducers=4, slowstart=0.05, noise=0.0, skew=0.0):
    DatasetSpec("tiny", num_blocks=blocks).load(sc.hdfs, "/in")
    profile = WorkloadProfile(
        name="t", map_output_ratio=1.0, map_output_record_size=100.0,
        map_output_noise=noise, partition_skew=skew,
        map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
    )
    return JobSpec(
        name="t", workload=profile, input_path="/in", num_reducers=reducers,
        base_config=Configuration(), slowstart=slowstart,
    )


def run_with_faults(sc, plan, spec=None, max_events=40_000_000):
    sc.inject_faults(plan=plan)
    am = sc.submit(spec or small_spec(sc))
    result = sc.sim.run_until_complete(am.completion, max_events=max_events)
    return am, result


class TestFetchRecoveryEndToEnd:
    def test_link_flaky_job_completes_with_retries(self):
        sc = small_cluster()
        plan = FaultPlan(
            (Fault(time=1.0, kind="link_flaky", node_id=2,
                   fail_prob=0.6, duration=30.0),)
        )
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert sc.telemetry.counters.get("shuffle.fetch_retries", 0) > 0
        assert sum(s.fetch_retries for s in result.task_stats) > 0
        assert_no_output_leaks(sc.hdfs)

    def test_rack_partition_job_completes(self):
        sc = small_cluster()
        plan = FaultPlan(
            (Fault(time=10.0, kind="rack_partition", node_id=0, duration=20.0),)
        )
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert_no_output_leaks(sc.hdfs)

    def test_link_degrade_job_completes(self):
        sc = small_cluster()
        plan = FaultPlan(
            (Fault(time=5.0, kind="link_degrade", node_id=1,
                   net_factor=0.2, recover_time=30.0),)
        )
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert_no_output_leaks(sc.hdfs)

    def test_generated_network_plan_completes(self):
        sc = small_cluster(seed=3)
        plan = sc.inject_faults(
            horizon=60.0, link_flaky=2, rack_partitions=1, link_degraded=1
        )
        assert plan.has_network_faults
        am = sc.submit(small_spec(sc))
        result = sc.sim.run_until_complete(am.completion, max_events=40_000_000)
        assert result.succeeded
        assert_no_output_leaks(sc.hdfs)

    def test_same_seed_same_outcome(self):
        def once():
            sc = small_cluster(seed=7)
            plan = FaultPlan(
                (Fault(time=1.0, kind="link_flaky", node_id=1,
                       fail_prob=0.7, duration=40.0),)
            )
            _, result = run_with_faults(sc, plan)
            retries = sc.telemetry.counters.get("shuffle.fetch_retries", 0)
            return (result.succeeded, result.duration, retries,
                    sorted(result.failure_reasons.items()))

        assert once() == once()


class TestMapOutputLoss:
    """The pinned threshold-crossing scenario: a long, nearly-opaque
    flaky window exhausts fetch retries, reports cross the AM's
    threshold, the map output is declared lost and the map re-runs --
    and the job still succeeds."""

    PLAN = FaultPlan(
        (Fault(time=1.0, kind="link_flaky", node_id=0,
               fail_prob=0.95, duration=60.0),)
    )

    def test_map_output_lost_and_reexecuted(self):
        sc = small_cluster()
        events = []
        sc.telemetry.subscribe(events.append, categories=("yarn",))
        _, result = run_with_faults(sc, self.PLAN)
        assert result.succeeded
        counters = sc.telemetry.counters
        assert counters.get("shuffle.fetch_failure_reports", 0) >= 3
        assert counters.get("yarn.map_outputs_lost", 0) >= 1
        # The loss is charged as an environmental fetch_failure and the
        # map re-ran: its index appears in more than one attempt.
        assert result.failure_reasons.get("fetch_failure", 0) >= 1
        lost = [e for e in events if isinstance(e, MapOutputLost)]
        assert lost and all(e.reports >= 1 for e in lost)
        reruns = {
            s.task_id.index
            for s in result.stats_of(TaskType.MAP)
            if s.failed and s.failure_kind == "fetch_failure"
        }
        attempts = {}
        for s in result.stats_of(TaskType.MAP):
            attempts.setdefault(s.task_id.index, set()).add(s.attempt)
        assert all(len(attempts[i]) > 1 for i in reruns)
        assert_no_output_leaks(sc.hdfs)


class TestClimberRollback:
    def make_climber(self, rng_seed=0):
        space = PARAMETER_SPACE.subspace(
            [PARAMETER_SPACE.names[0], PARAMETER_SPACE.names[1]]
        )
        return GrayBoxHillClimber(
            space,
            np.random.default_rng(rng_seed),
            HillClimbSettings(m=3, n=3, global_search_limit=2),
        )

    def test_rollback_without_incumbent_refused(self):
        climber = self.make_climber()
        climber.propose()
        assert climber.rollback() is False  # no last-known-good yet

    def test_rollback_voids_batch_and_keeps_incumbent(self):
        climber = self.make_climber()
        for sample in climber.propose():
            climber.observe(sample.sample_id, 1.0 + 0.1 * sample.sample_id)
        best_before = climber.best_cost()
        batch = climber.propose()
        assert batch
        climber.observe(batch[0].sample_id, 99.0)  # poisoned observation
        assert climber.rollback() is True
        assert climber.best_cost() == best_before
        assert climber.pending_samples() == []
        fresh = climber.propose()  # re-draws around the incumbent
        assert fresh and all(not s.costs for s in fresh)
        assert not climber.finished

    def test_rollback_notifies_listeners(self):
        climber = self.make_climber()
        decisions = []
        climber.decision_listeners.append(lambda d, info: decisions.append(d))
        for sample in climber.propose():
            climber.observe(sample.sample_id, 1.0)
        climber.propose()
        assert climber.rollback() is True
        assert "rollback" in decisions


class TestTunerRollbackGate:
    """Drive the aggressive tuner's safety gate with synthetic stats."""

    def make_tuner(self):
        tuner = OnlineTuner(
            TuningStrategy.AGGRESSIVE,
            settings=TunerSettings(
                hill_climb=HillClimbSettings(m=2, n=2, global_search_limit=2),
                use_knowledge_base=False,
            ),
            rng=np.random.default_rng(0),
        )
        profile = WorkloadProfile(
            name="t", map_output_ratio=1.0, map_output_record_size=100.0,
            map_output_noise=0.0, partition_skew=0.0,
            map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
        )
        spec = JobSpec(
            name="t", workload=profile, input_path="/in", num_reducers=4,
            base_config=Configuration(),
        )
        tuner.attach_job(spec)
        return tuner, spec

    def feed_wave(self, tuner, spec, state, index0, fetch_retries=0, wave=1):
        """Complete the in-flight wave with one stat per pending sample."""
        index = index0
        for sample in list(state.climber.pending_samples()):
            tid = TaskId(spec.job_id, TaskType.MAP, index)
            state.bindings[str(tid)] = sample.sample_id
            stats = TaskStats(
                task_id=tid, task_type=TaskType.MAP, node_id=0, attempt=0,
                config={}, start_time=0.0, end_time=10.0 + index,
                cpu_seconds=5.0, allocated_cores=1.0,
                working_set_bytes=100 * MB, container_memory_bytes=200 * MB,
                fetch_retries=fetch_retries, wave=wave,
            )
            tuner.on_task_stats(stats)
            index += 1
        return index

    def test_fault_inflated_wave_rolls_back(self):
        tuner, spec = self.make_tuner()
        job = tuner._jobs[spec.job_id]
        state = job.search_states[TaskType.MAP]
        state.admitted = 1000  # plenty of tasks still to come
        index = self.feed_wave(tuner, spec, state, 0, fetch_retries=0, wave=1)
        best_before = state.climber.best_cost()
        assert best_before is not None  # wave 1 set the incumbent
        self.feed_wave(tuner, spec, state, index, fetch_retries=4, wave=2)
        assert any("rolled back" in line for line in state.rule_log)
        assert state.climber.best_cost() == best_before  # incumbent kept
        assert state.result_buffer == [] and state.window == []
        assert not state.search_done
        assert state.climber.pending_samples()  # re-proposed batch

    def test_clean_wave_does_not_roll_back(self):
        tuner, spec = self.make_tuner()
        job = tuner._jobs[spec.job_id]
        state = job.search_states[TaskType.MAP]
        state.admitted = 1000
        index = self.feed_wave(tuner, spec, state, 0, fetch_retries=0, wave=1)
        self.feed_wave(tuner, spec, state, index, fetch_retries=0, wave=2)
        assert not any("rolled back" in line for line in state.rule_log)

    def test_minority_inflation_is_discounted_not_rolled_back(self):
        """Below the majority threshold the wave proceeds; the inflated
        stat is excluded from the rule window but still observed (its
        backoff time discounted via effective_duration)."""
        tuner, spec = self.make_tuner()
        job = tuner._jobs[spec.job_id]
        state = job.search_states[TaskType.MAP]
        state.admitted = 1000
        index = self.feed_wave(tuner, spec, state, 0, fetch_retries=0, wave=1)
        # Wave 2: first sample inflated, the rest clean (1 of 3 with the
        # incumbent replay -> below the >= 50% gate).
        pending = list(state.climber.pending_samples())
        assert len(pending) >= 2
        for i, sample in enumerate(pending):
            tid = TaskId(spec.job_id, TaskType.MAP, index + i)
            state.bindings[str(tid)] = sample.sample_id
            tuner.on_task_stats(TaskStats(
                task_id=tid, task_type=TaskType.MAP, node_id=0, attempt=0,
                config={}, start_time=0.0, end_time=20.0,
                cpu_seconds=5.0, allocated_cores=1.0,
                working_set_bytes=100 * MB, container_memory_bytes=200 * MB,
                fetch_retries=(3 if i == 0 else 0), wave=2,
            ))
        assert not any("rolled back" in line for line in state.rule_log)


class TestTunerRollbackEndToEnd:
    def test_flaky_reduce_waves_roll_back_and_job_succeeds(self):
        """Pinned end-to-end scenario covering the whole safety chain:
        the flaky window inflates reduce wave 2, the gate fires (and is
        visible as a TunerRollback event), a map output is lost and
        re-executed, and the job still completes."""
        sc, tuner, spec, result, events = run_link_flaky()
        assert result.succeeded
        rollbacks = [e for e in events if isinstance(e, TunerRollback)]
        assert rollbacks
        assert all(e.reason == "fetch" for e in rollbacks)
        assert all(e.suspect_samples * 2 >= e.total_samples for e in rollbacks)
        assert sc.telemetry.counters.get("tuner.rollbacks", 0) >= 1
        assert sc.telemetry.counters.get("yarn.map_outputs_lost", 0) >= 1
        state = tuner._jobs[spec.job_id].search_states[TaskType.REDUCE]
        assert any("rolled back" in line for line in state.rule_log)
        assert_no_output_leaks(sc.hdfs)
