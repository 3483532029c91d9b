"""Fault-plan construction, validation, and generation determinism."""

import numpy as np
import pytest

from repro.experiments.harness import SimCluster
from repro.faults import (
    KIND_TO_KNOB,
    Fault,
    FaultPlan,
    generate_fault_plan,
    plan_from_json,
    plan_to_json,
)


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(time=1.0, kind="meteor", node_id=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time must be >= 0"):
            Fault(time=-1.0, kind="node_crash", node_id=0)

    def test_bad_slowdown_factors_rejected(self):
        with pytest.raises(ValueError, match="factors"):
            Fault(time=1.0, kind="degrade", node_id=0, cpu_factor=0.0)
        with pytest.raises(ValueError, match="factors"):
            Fault(time=1.0, kind="degrade", node_id=0, disk_factor=1.5)

    def test_bad_kill_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            Fault(time=1.0, kind="container_kill", node_id=0, count=0)


class TestFaultPlan:
    def test_sorted_by_time(self):
        plan = FaultPlan(
            (
                Fault(time=9.0, kind="node_crash", node_id=2),
                Fault(time=1.0, kind="container_kill", node_id=0),
                Fault(time=5.0, kind="degrade", node_id=1, cpu_factor=0.5),
            )
        )
        assert [f.time for f in plan] == [1.0, 5.0, 9.0]

    def test_node_sets(self):
        plan = FaultPlan(
            (
                Fault(time=1.0, kind="node_crash", node_id=3),
                Fault(time=2.0, kind="degrade", node_id=1, disk_factor=0.5),
            )
        )
        assert plan.crashed_nodes == [3]
        assert plan.degraded_nodes == [1]
        assert len(plan) == 2

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan((Fault(time=1.5, kind="node_crash", node_id=7),))
        assert plan.describe() == ["t=1.5s crash node 7"]


class TestGenerateFaultPlan:
    def test_same_seed_same_plan(self):
        a = generate_fault_plan(
            np.random.default_rng(7), num_nodes=12, horizon=100.0,
            crashes=1, container_kills=3, degraded=2,
        )
        b = generate_fault_plan(
            np.random.default_rng(7), num_nodes=12, horizon=100.0,
            crashes=1, container_kills=3, degraded=2,
        )
        assert a == b

    def test_different_seed_different_plan(self):
        a = generate_fault_plan(
            np.random.default_rng(1), num_nodes=12, horizon=100.0, crashes=1
        )
        b = generate_fault_plan(
            np.random.default_rng(2), num_nodes=12, horizon=100.0, crashes=1
        )
        assert a != b

    def test_crash_and_degrade_sets_disjoint(self):
        plan = generate_fault_plan(
            np.random.default_rng(5), num_nodes=6, horizon=50.0,
            crashes=2, degraded=3,
        )
        assert not set(plan.crashed_nodes) & set(plan.degraded_nodes)

    def test_kills_avoid_crashed_nodes(self):
        plan = generate_fault_plan(
            np.random.default_rng(5), num_nodes=4, horizon=50.0,
            crashes=2, container_kills=20,
        )
        crashed = set(plan.crashed_nodes)
        for f in plan:
            if f.kind == "container_kill":
                assert f.node_id not in crashed

    def test_times_within_windows(self):
        plan = generate_fault_plan(
            np.random.default_rng(3), num_nodes=10, horizon=200.0,
            crashes=2, container_kills=5, degraded=2,
        )
        for f in plan:
            if f.kind == "node_crash":
                assert 0.15 * 200 <= f.time <= 0.60 * 200
            elif f.kind == "degrade":
                assert 0.05 * 200 <= f.time <= 0.30 * 200
            else:
                assert 0.20 * 200 <= f.time <= 0.80 * 200

    def test_must_leave_a_healthy_node(self):
        with pytest.raises(ValueError, match="nodes"):
            generate_fault_plan(
                np.random.default_rng(0), num_nodes=3, horizon=10.0,
                crashes=2, degraded=1,
            )

    def test_rejects_bad_horizon_and_counts(self):
        with pytest.raises(ValueError, match="horizon"):
            generate_fault_plan(np.random.default_rng(0), num_nodes=4, horizon=0.0)
        with pytest.raises(ValueError, match="counts"):
            generate_fault_plan(
                np.random.default_rng(0), num_nodes=4, horizon=10.0, crashes=-1
            )

    @pytest.mark.parametrize("kind,knob", sorted(KIND_TO_KNOB.items()))
    def test_each_knob_reaches_its_own_kind(self, kind, knob):
        # inject_faults forwards **counts; a dropped or misrouted knob
        # would yield an empty plan or the wrong kind.
        plan = SimCluster(seed=1).inject_faults(horizon=100.0, **{knob: 1})
        assert {f.kind for f in plan} == {kind}


class TestElasticFaults:
    def elastic_plan(self):
        return FaultPlan(
            (
                Fault(time=5.0, kind="node_join", node_id=2),
                Fault(time=12.0, kind="node_decommission", node_id=0),
                Fault(time=20.0, kind="spot_preempt", node_id=1, duration=4.0),
            )
        )

    def test_json_round_trip_with_elastic_kinds(self):
        plan = self.elastic_plan()
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_spot_preempt_needs_grace_window(self):
        with pytest.raises(ValueError, match="grace window"):
            Fault(time=1.0, kind="spot_preempt", node_id=0)
        with pytest.raises(ValueError, match="grace window"):
            Fault(time=1.0, kind="spot_preempt", node_id=0, duration=0.0)

    def test_describe_mentions_elastic_faults(self):
        descriptions = "\n".join(self.elastic_plan().describe())
        for needle in ("join", "decommission", "preempt"):
            assert needle in descriptions

    def test_has_elastic_faults_flag(self):
        assert self.elastic_plan().has_elastic_faults
        legacy = FaultPlan((Fault(time=1.0, kind="node_crash", node_id=0),))
        assert not legacy.has_elastic_faults

    def test_generated_drain_and_preempt_targets_disjoint(self):
        plan = generate_fault_plan(
            np.random.default_rng(11), num_nodes=8, horizon=100.0,
            decommissions=2, joins=1, spot_preempts=2,
        )
        drained = [f.node_id for f in plan if f.kind == "node_decommission"]
        preempted = [f.node_id for f in plan if f.kind == "spot_preempt"]
        assert len(drained) == 2 and len(preempted) == 2
        assert not set(drained) & set(preempted)
        assert sum(1 for f in plan if f.kind == "node_join") == 1
        for f in plan:
            if f.kind == "spot_preempt":
                assert f.duration > 0

    def test_generation_rejects_cluster_emptying_churn(self):
        with pytest.raises(ValueError, match="empty"):
            generate_fault_plan(
                np.random.default_rng(0), num_nodes=4, horizon=50.0,
                crashes=1, decommissions=2, spot_preempts=1,
            )

    def test_elastic_knobs_are_replay_stable(self):
        """Adding elastic churn must not perturb the legacy draws."""
        base = generate_fault_plan(
            np.random.default_rng(9), num_nodes=10, horizon=100.0,
            crashes=1, container_kills=2, degraded=1,
        )
        churned = generate_fault_plan(
            np.random.default_rng(9), num_nodes=10, horizon=100.0,
            crashes=1, container_kills=2, degraded=1,
            decommissions=1, joins=1, spot_preempts=1,
        )
        legacy = [f for f in churned if f.kind in ("node_crash", "container_kill", "degrade")]
        assert sorted(legacy, key=lambda f: (f.time, f.kind)) == sorted(
            base, key=lambda f: (f.time, f.kind)
        )

    def test_levels_for_kinds_covers_elastic(self):
        from repro.experiments.faults import levels_for_kinds

        levels = levels_for_kinds(
            ("node_decommission", "node_join", "spot_preempt")
        )
        assert levels["none"] == {}
        assert levels["low"] == {"decommissions": 1, "joins": 1, "spot_preempts": 1}
        # Node-removing kinds stay capped at one even at the high level.
        assert levels["high"] == {"decommissions": 1, "joins": 2, "spot_preempts": 1}
