"""Injector mechanics: arming, applying, skipping, and invariance."""

import pytest

from repro.cluster.node import NodeState
from repro.cluster.topology import ClusterSpec
from repro.core.configuration import Configuration
from repro.experiments.harness import SimCluster
from repro.faults import Fault, FaultInjector, FaultPlan
from repro.mapreduce.jobspec import JobSpec, WorkloadProfile
from repro.workloads.datasets import DatasetSpec

MB = 1024**2


def small_cluster(seed=0, ft=None):
    return SimCluster(
        seed=seed,
        cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=False,
        fault_tolerance=ft,
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


class TestArming:
    def test_empty_plan_keeps_run_bit_identical(self):
        # Arming an empty plan must not start failure detection or touch
        # any RNG stream: the run replays the fault-free one exactly.
        plain = small_cluster(seed=3)
        ra = plain.run_job(small_spec(plain))

        armed = small_cluster(seed=3)
        armed.inject_faults(plan=FaultPlan())
        rb = armed.run_job(small_spec(armed))

        assert ra.duration == rb.duration
        assert ra.counters.snapshot() == rb.counters.snapshot()

    def test_double_injection_rejected(self):
        sc = small_cluster()
        sc.inject_faults(plan=FaultPlan())
        with pytest.raises(RuntimeError, match="already injected"):
            sc.inject_faults(plan=FaultPlan())

    def test_injector_restart_rejected(self):
        sc = small_cluster()
        inj = FaultInjector(sc.sim, sc.cluster, sc.node_managers, sc.rm, FaultPlan())
        inj.start()
        with pytest.raises(RuntimeError, match="already started"):
            inj.start()

    def test_generated_plan_is_seed_deterministic(self):
        plans = [
            small_cluster(seed=9).inject_faults(
                crashes=1, container_kills=2, horizon=50.0
            )
            for _ in range(2)
        ]
        assert plans[0] == plans[1]


class TestApplication:
    def test_crash_kills_node_and_is_logged(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=5.0, kind="node_crash", node_id=1),))
        sc.inject_faults(plan=plan)
        sc.sim.run(until=6.0)
        assert not sc.cluster.node(1).alive
        assert len(sc.fault_injector.applied) == 1

    def test_faults_on_dead_node_are_skipped(self):
        sc = small_cluster()
        plan = FaultPlan(
            (
                Fault(time=5.0, kind="node_crash", node_id=1),
                Fault(time=8.0, kind="degrade", node_id=1, cpu_factor=0.5),
                Fault(time=9.0, kind="container_kill", node_id=1),
            )
        )
        sc.inject_faults(plan=plan)
        sc.sim.run(until=10.0)
        assert len(sc.fault_injector.applied) == 1
        assert len(sc.fault_injector.skipped) == 2

    def test_degrade_rescales_node(self):
        sc = small_cluster()
        nominal = sc.cluster.node(2).cpu_link.capacity
        plan = FaultPlan(
            (Fault(time=2.0, kind="degrade", node_id=2, cpu_factor=0.5),)
        )
        sc.inject_faults(plan=plan)
        sc.sim.run(until=3.0)
        assert sc.cluster.node(2).cpu_link.capacity == pytest.approx(0.5 * nominal)

    def test_rm_declares_crashed_node_lost_after_expiry(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=5.0, kind="node_crash", node_id=0),))
        sc.inject_faults(plan=plan)
        sc.sim.run(until=6.0)
        # Crashed but silence not yet past expiry: still a member.
        assert sc.cluster.node(0).state is NodeState.ACTIVE
        sc.sim.run(until=30.0)
        assert sc.cluster.node(0).state is NodeState.LOST
