"""Tests for the MR app master: end-to-end jobs on a small cluster."""

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core import parameters as P
from repro.core.configuration import Configuration, is_feasible
from repro.experiments.harness import SimCluster
from repro.experiments.parallel import execute_request
from repro.mapreduce.counters import Counter
from repro.mapreduce.jobspec import JobSpec, TaskType, WorkloadProfile
from repro.workloads.datasets import DatasetSpec
from repro.yarn.app_master import BaseConfigProvider, MRAppMaster
from tests.faults.test_determinism import elastic_requests
from tests.pins import check

MB = 1024**2


def small_cluster(seed=0):
    return SimCluster(
        seed=seed,
        cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=False,
    )


def small_spec(sc, blocks=8, reducers=4, profile=None, config=None, slowstart=0.05):
    DatasetSpec("tiny", num_blocks=blocks).load(sc.hdfs, "/in")
    profile = profile or WorkloadProfile(
        name="t", map_output_ratio=1.0, map_output_record_size=100.0,
        map_output_noise=0.0, partition_skew=0.0,
        map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
    )
    return JobSpec(
        name="t", workload=profile, input_path="/in", num_reducers=reducers,
        base_config=config or Configuration(), slowstart=slowstart,
    )


class TestJobExecution:
    def test_job_completes_successfully(self):
        sc = small_cluster()
        result = sc.run_job(small_spec(sc))
        assert result.succeeded
        assert result.duration > 0
        assert len(result.stats_of(TaskType.MAP)) == 8
        assert len(result.stats_of(TaskType.REDUCE)) == 4

    def test_counters_aggregate(self):
        sc = small_cluster()
        result = sc.run_job(small_spec(sc))
        c = result.counters
        assert c[Counter.MAP_OUTPUT_RECORDS] > 0
        assert c[Counter.SHUFFLED_BYTES] == pytest.approx(
            c[Counter.MAP_OUTPUT_BYTES], rel=0.01
        )
        assert c[Counter.SPILLED_RECORDS] >= c[Counter.MAP_OUTPUT_RECORDS]

    def test_determinism_same_seed(self):
        # Two fresh, identically seeded setups must agree bit for bit.
        sc_a, sc_b = small_cluster(seed=3), small_cluster(seed=3)
        ra = sc_a.run_job(small_spec(sc_a))
        rb = sc_b.run_job(small_spec(sc_b))
        assert ra.duration == rb.duration
        assert ra.counters.snapshot() == rb.counters.snapshot()

    def test_different_seeds_differ(self):
        noisy = WorkloadProfile(
            name="t", map_output_ratio=1.0, map_output_record_size=100.0,
            map_output_noise=0.1, partition_skew=0.3,
        )
        sc_a, sc_b = small_cluster(seed=3), small_cluster(seed=4)
        ra = sc_a.run_job(small_spec(sc_a, profile=noisy))
        rb = sc_b.run_job(small_spec(sc_b, profile=noisy))
        assert ra.duration != rb.duration

    def test_reduces_respect_slowstart(self):
        sc = small_cluster()
        result = sc.run_job(small_spec(sc, blocks=8, slowstart=1.0))
        map_end = max(s.end_time for s in result.stats_of(TaskType.MAP))
        red_start = min(s.start_time for s in result.stats_of(TaskType.REDUCE))
        assert red_start >= map_end - 1e-6

    def test_early_slowstart_overlaps_shuffle(self):
        sc = small_cluster()
        result = sc.run_job(small_spec(sc, blocks=16, slowstart=0.05))
        map_end = max(s.end_time for s in result.stats_of(TaskType.MAP))
        red_start = min(s.start_time for s in result.stats_of(TaskType.REDUCE))
        assert red_start < map_end

    def test_lethal_config_fails_attempts_but_job_terminates(self):
        # 300 MB user code + 614 MB buffer > 819 MB heap: every attempt
        # OOMs (the fallback clamp cannot know the user code's size).
        # The job must still terminate -- flagged unsuccessful -- rather
        # than deadlock waiting for slowstart.
        profile = WorkloadProfile(
            name="t", map_output_ratio=1.0, map_output_record_size=100.0,
            map_output_noise=0.0, partition_skew=0.0,
            map_fixed_mem_bytes=300 * MB,
        )
        config = Configuration({P.MAP_MEMORY_MB: 1024, P.IO_SORT_MB: 614})
        sc = small_cluster()
        result = sc.run_job(small_spec(sc, profile=profile, config=config))
        assert result.counters[Counter.FAILED_TASK_ATTEMPTS] > 0
        assert not result.succeeded

    def test_larger_containers_reduce_parallelism(self):
        sc1 = small_cluster()
        r_small = sc1.run_job(small_spec(sc1, blocks=24))
        sc2 = small_cluster()
        big = Configuration({P.MAP_MEMORY_MB: 3072})
        r_big = sc2.run_job(small_spec(sc2, blocks=24, config=big))
        map_end_small = max(s.end_time for s in r_small.stats_of(TaskType.MAP))
        map_end_big = max(s.end_time for s in r_big.stats_of(TaskType.MAP))
        assert map_end_big > map_end_small


class TestBaseConfigProvider:
    def test_tasks_run_the_clamped_base_config(self):
        sc = small_cluster()
        infeasible = Configuration({P.MAP_MEMORY_MB: 1024, P.IO_SORT_MB: 1600})
        spec = small_spec(sc, config=infeasible)
        provider, tid = BaseConfigProvider(), spec.map_task_id(0)
        requested = provider.task_config(spec, tid)
        assert is_feasible(requested)
        assert requested is not spec.base_config
        assert provider.task_launch_config(spec, tid, requested) is requested
        result = sc.run_job(spec)
        assert result.succeeded
        sort_mb = {s.config[P.IO_SORT_MB] for s in result.stats_of(TaskType.MAP)}
        assert sort_mb == {requested[P.IO_SORT_MB]}


class TestWaveGate:
    def test_default_gate_single_wave(self):
        sc = small_cluster()
        result = sc.run_job(small_spec(sc, blocks=8))
        assert {s.wave for s in result.task_stats} == {-1}


class TestMultiJob:
    def test_two_jobs_share_cluster_fifo(self):
        sc = small_cluster()
        spec1 = small_spec(sc, blocks=8, reducers=2)
        DatasetSpec("tiny2", num_blocks=8).load(sc.hdfs, "/in2")
        spec2 = JobSpec(
            name="t2", workload=spec1.workload, input_path="/in2", num_reducers=2
        )
        ams = [sc.submit(spec1), sc.submit(spec2)]
        results = [sc.sim.run_until_complete(am.completion) for am in ams]
        assert all(r.succeeded for r in results)

    def test_fair_scheduler_interleaves(self):
        sc = SimCluster(
            seed=0,
            cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
            scheduler="fair",
            start_monitors=False,
        )
        spec1 = small_spec(sc, blocks=16, reducers=2)
        DatasetSpec("tiny2", num_blocks=16).load(sc.hdfs, "/in2")
        spec2 = JobSpec(
            name="t2", workload=spec1.workload, input_path="/in2", num_reducers=2
        )
        ams = [sc.submit(spec1), sc.submit(spec2)]
        results = [sc.sim.run_until_complete(am.completion) for am in ams]
        # Fair sharing: the second job must start long before the first ends.
        first_end = results[0].end_time
        second_start = min(s.start_time for s in results[1].task_stats)
        assert second_start < first_end * 0.5


class TestFailureHandlingSeesOnlyLiveAttempts:
    def test_no_settled_attempt_in_running_under_churn(self, monkeypatch):
        """``_settle`` marks an attempt SETTLED and drops it from
        ``run.running`` in one step, so ``_handle_failure`` never finds a
        settled attempt there; its migration check needs no ``settled``
        test.  The elastic-churn pin scenarios reach that check."""
        seen = []
        handle_failure = MRAppMaster._handle_failure

        def checked(self, run, attempt, stats):
            seen.append([(a.settled, a.migration) for a in run.running])
            return handle_failure(self, run, attempt, stats)

        monkeypatch.setattr(MRAppMaster, "_handle_failure", checked)
        sparse, dense = (execute_request(r) for r in elastic_requests())
        check("faults/elastic-sparse", sparse.digest())
        check("faults/elastic-dense", dense.digest())
        assert seen
        assert not any(settled for running in seen for settled, _ in running)
        assert any(migration for running in seen for _, migration in running)
