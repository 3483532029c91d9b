"""Network-fault model: plan validation, JSON round-trip, injection."""

import numpy as np
import pytest

from repro.cluster.node import FROZEN_CAPACITY
from repro.cluster.topology import ClusterSpec
from repro.experiments.harness import SimCluster
from repro.faults import (
    Fault,
    FaultPlan,
    NetworkFaultState,
    generate_fault_plan,
    plan_from_json,
    plan_to_json,
)


def small_cluster(seed=0):
    return SimCluster(
        seed=seed,
        cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=False,
    )


class TestFaultValidation:
    def test_bad_net_factor_rejected(self):
        with pytest.raises(ValueError, match="net_factor"):
            Fault(time=1.0, kind="link_degrade", node_id=0, net_factor=0.0)
        with pytest.raises(ValueError, match="net_factor"):
            Fault(time=1.0, kind="link_degrade", node_id=0, net_factor=1.5)

    def test_link_flaky_needs_prob_and_duration(self):
        with pytest.raises(ValueError, match="fail_prob"):
            Fault(time=1.0, kind="link_flaky", node_id=0, duration=5.0)
        with pytest.raises(ValueError, match="duration"):
            Fault(time=1.0, kind="link_flaky", node_id=0, fail_prob=0.5)
        with pytest.raises(ValueError, match="fail_prob"):
            Fault(time=1.0, kind="link_flaky", node_id=0, fail_prob=1.0, duration=5.0)

    def test_rack_partition_needs_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Fault(time=1.0, kind="rack_partition", node_id=0)

    def test_negative_recover_time_rejected(self):
        with pytest.raises(ValueError, match="recover_time"):
            Fault(time=1.0, kind="degrade", node_id=0, recover_time=-1.0)


class TestDescribe:
    def test_legacy_describe_strings_unchanged(self):
        assert Fault(time=2.0, kind="node_crash", node_id=3).describe() == (
            "t=2.0s crash node 3"
        )
        assert Fault(time=2.0, kind="container_kill", node_id=3, count=2).describe() == (
            "t=2.0s kill 2 container(s) on node 3"
        )
        assert Fault(
            time=2.0, kind="degrade", node_id=3, cpu_factor=0.5, disk_factor=0.75
        ).describe() == "t=2.0s degrade node 3 (cpu x0.50, disk x0.75)"

    def test_degrade_recover_time_mentioned(self):
        text = Fault(
            time=2.0, kind="degrade", node_id=3, cpu_factor=0.5, recover_time=7.5
        ).describe()
        assert "recovers +7.5s" in text

    def test_network_kinds_described(self):
        assert "degrade link of node 1" in Fault(
            time=1.0, kind="link_degrade", node_id=1, net_factor=0.4
        ).describe()
        assert "flaky link on node 1" in Fault(
            time=1.0, kind="link_flaky", node_id=1, fail_prob=0.5, duration=5.0
        ).describe()
        assert "partition rack of node 1" in Fault(
            time=1.0, kind="rack_partition", node_id=1, duration=5.0
        ).describe()


class TestPlanProperties:
    def test_has_network_faults(self):
        legacy = FaultPlan((Fault(time=1.0, kind="node_crash", node_id=0),))
        assert not legacy.has_network_faults
        net = FaultPlan(
            (Fault(time=1.0, kind="link_flaky", node_id=0, fail_prob=0.5, duration=2.0),)
        )
        assert net.has_network_faults


class TestGeneration:
    def test_legacy_plans_unperturbed_by_new_knobs(self):
        # The network draws come strictly after every legacy draw, so a
        # legacy-knob plan is a prefix (as a set) of the extended plan
        # generated from the same stream state.
        legacy = generate_fault_plan(
            np.random.default_rng(7), num_nodes=8, horizon=100.0,
            crashes=1, container_kills=2, degraded=1,
        )
        extended = generate_fault_plan(
            np.random.default_rng(7), num_nodes=8, horizon=100.0,
            crashes=1, container_kills=2, degraded=1,
            link_degraded=1, link_flaky=1, rack_partitions=1,
        )
        legacy_kinds = {"node_crash", "container_kill", "degrade"}
        assert set(legacy.faults) == {
            f for f in extended.faults if f.kind in legacy_kinds
        }
        assert sum(1 for f in extended.faults if f.kind not in legacy_kinds) == 3

    def test_network_faults_avoid_crashed_nodes(self):
        plan = generate_fault_plan(
            np.random.default_rng(3), num_nodes=5, horizon=50.0,
            crashes=2, link_flaky=4, rack_partitions=2, link_degraded=3,
        )
        crashed = set(plan.crashed_nodes)
        for f in plan:
            if f.kind in ("link_degrade", "link_flaky", "rack_partition"):
                assert f.node_id not in crashed

    def test_same_seed_same_plan(self):
        kw = dict(num_nodes=6, horizon=40.0, link_flaky=2, rack_partitions=1)
        a = generate_fault_plan(np.random.default_rng(11), **kw)
        b = generate_fault_plan(np.random.default_rng(11), **kw)
        assert a == b


class TestJsonRoundTrip:
    def test_round_trip_is_identity(self):
        plan = generate_fault_plan(
            np.random.default_rng(5), num_nodes=8, horizon=60.0,
            crashes=1, container_kills=1, degraded=1,
            link_degraded=1, link_flaky=1, rack_partitions=1,
        )
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_defaults_elided_from_dump(self):
        plan = FaultPlan((Fault(time=1.0, kind="node_crash", node_id=0),))
        text = plan_to_json(plan)
        assert "cpu_factor" not in text and "net_factor" not in text

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault fields"):
            plan_from_json(
                '{"faults": [{"time": 1.0, "kind": "node_crash",'
                ' "node_id": 0, "bogus": 1}]}'
            )

    def test_bad_values_rejected_on_load(self):
        with pytest.raises(ValueError, match="fail_prob"):
            plan_from_json(
                '{"faults": [{"time": 1.0, "kind": "link_flaky",'
                ' "node_id": 0, "fail_prob": 2.0, "duration": 5.0}]}'
            )

    @pytest.mark.parametrize(
        "record",
        ['{"kind": "node_crash"}', '{"time": "soon", "kind": "node_crash", "node_id": 0}'],
        ids=["missing-fields", "mistyped-time"],
    )
    def test_malformed_records_raise_value_error(self, record):
        with pytest.raises(ValueError, match="bad fault record"):
            plan_from_json('{"faults": [%s]}' % record)


class TestNetworkFaultState:
    def test_no_draws_outside_windows(self):
        rng = np.random.default_rng(0)
        state = NetworkFaultState(rng)
        state.add_flaky_window(1, start=10.0, end=20.0, fail_prob=0.9)
        before = rng.bit_generator.state
        assert state.draw_fetch_failure(0, 2, now=15.0) is False  # untouched nodes
        assert state.draw_fetch_failure(1, 2, now=25.0) is False  # window expired
        assert rng.bit_generator.state == before
        state.draw_fetch_failure(1, 2, now=15.0)  # inside: consumes the stream
        assert rng.bit_generator.state != before
        assert state.fetch_failures_drawn >= 0

    def test_overlapping_windows_combine(self):
        state = NetworkFaultState(np.random.default_rng(0))
        state.add_flaky_window(1, start=0.0, end=10.0, fail_prob=0.5)
        state.add_flaky_window(1, start=5.0, end=15.0, fail_prob=0.5)
        assert state.failure_prob(1, 7.0) == pytest.approx(0.75)
        assert state.failure_prob(1, 12.0) == pytest.approx(0.5)


class TestInjection:
    def test_link_degrade_rescales_and_recovers(self):
        sc = small_cluster()
        net = sc.cluster.network
        base_tx = net._tx[1].capacity
        plan = FaultPlan(
            (Fault(time=5.0, kind="link_degrade", node_id=1,
                   net_factor=0.25, recover_time=10.0),)
        )
        sc.inject_faults(plan=plan)
        sc.sim.run(until=6.0)
        assert net._tx[1].capacity == pytest.approx(0.25 * base_tx)
        assert net._rx[1].capacity == pytest.approx(0.25 * base_tx)
        sc.sim.run(until=16.0)
        assert net._tx[1].capacity == pytest.approx(base_tx)

    def test_rack_partition_freezes_uplink_then_heals(self):
        sc = small_cluster()
        net = sc.cluster.network
        rack = sc.cluster.nodes[0].rack
        base = net._uplink[rack].capacity
        plan = FaultPlan(
            (Fault(time=5.0, kind="rack_partition", node_id=0, duration=8.0),)
        )
        sc.inject_faults(plan=plan)
        sc.sim.run(until=6.0)
        assert net.rack_partitioned(rack)
        assert net._uplink[rack].capacity == FROZEN_CAPACITY
        sc.sim.run(until=14.0)
        assert not net.rack_partitioned(rack)
        assert net._uplink[rack].capacity == pytest.approx(base)

    def test_link_flaky_arms_fetch_state(self):
        sc = small_cluster()
        plan = FaultPlan(
            (Fault(time=5.0, kind="link_flaky", node_id=2,
                   fail_prob=0.5, duration=10.0),)
        )
        sc.inject_faults(plan=plan)
        assert sc.cluster.network.faults is not None  # armed before t=0
        sc.sim.run(until=6.0)
        assert sc.cluster.network.faults.failure_prob(2, 10.0) == pytest.approx(0.5)

    def test_legacy_plan_leaves_fetch_path_unarmed(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=5.0, kind="container_kill", node_id=0),))
        sc.inject_faults(plan=plan)
        assert sc.cluster.network.faults is None

    def test_node_crash_freezes_nic_in_network_mode(self):
        sc = small_cluster()
        net = sc.cluster.network
        plan = FaultPlan(
            (
                Fault(time=5.0, kind="node_crash", node_id=3),
                Fault(time=6.0, kind="link_flaky", node_id=1,
                      fail_prob=0.4, duration=5.0),
            )
        )
        sc.inject_faults(plan=plan)
        sc.sim.run(until=7.0)
        assert net._tx[3].capacity == FROZEN_CAPACITY

    def test_degrade_recover_time_restores_node(self):
        sc = small_cluster()
        node = sc.cluster.nodes[2]
        nominal = node.cpu_link.capacity
        plan = FaultPlan(
            (Fault(time=5.0, kind="degrade", node_id=2,
                   cpu_factor=0.5, disk_factor=0.5, recover_time=10.0),)
        )
        sc.inject_faults(plan=plan)
        sc.sim.run(until=6.0)
        assert node.cpu_link.capacity == pytest.approx(0.5 * nominal)
        sc.sim.run(until=16.0)
        assert node.cpu_link.capacity == pytest.approx(nominal)
