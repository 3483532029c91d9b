"""Tests for the resource manager and node managers."""

import pytest

from repro.cluster.container import ContainerState
from repro.cluster.node import GB, NodeState
from repro.cluster.topology import Cluster, ClusterSpec
from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.yarn.node_manager import NodeManager
from repro.yarn.records import ContainerRequest, Resource
from repro.yarn.resource_manager import ALLOCATION_LATENCY, ResourceManager
from repro.yarn.scheduler import FifoScheduler


def make_rm(num_slaves=2):
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(num_slaves=num_slaves, racks=(num_slaves,)))
    rm = ResourceManager(sim, cluster, FifoScheduler(cluster))
    rm.register_app("a")
    return sim, cluster, rm


def req(mb=1024, vcores=1, app="a"):
    return ContainerRequest(app_id=app, resource=Resource.of_mb(mb, vcores))


class TestAllocation:
    def test_grant_arrives_after_heartbeat_latency(self):
        sim, _cluster, rm = make_rm()
        grant = rm.allocate(req())
        container = sim.run_until_complete(grant)
        assert sim.now == pytest.approx(ALLOCATION_LATENCY)
        assert container.memory_bytes == 1 * GB
        assert container.state is ContainerState.ALLOCATED

    def test_reservation_applied_on_grant(self):
        sim, cluster, rm = make_rm()
        container = sim.run_until_complete(rm.allocate(req(mb=2048, vcores=3)))
        assert container.node.yarn_memory_used == 2 * GB
        assert container.node.yarn_vcores_used == 3

    def test_release_frees_resources_and_redispatches(self):
        sim, cluster, rm = make_rm(num_slaves=1)
        node = cluster.nodes[0]
        # Fill the node with six 1 GB containers.
        grants = [rm.allocate(req()) for _ in range(6)]
        containers = [sim.run_until_complete(g) for g in grants]
        waiting = rm.allocate(req())
        sim.run(until=sim.now + 5 * ALLOCATION_LATENCY)
        assert not waiting.triggered  # no capacity yet
        rm.release_container(containers[0])
        got = sim.run_until_complete(waiting)
        assert got.node is node

    def test_double_release_rejected(self):
        sim, _cluster, rm = make_rm()
        container = sim.run_until_complete(rm.allocate(req()))
        rm.release_container(container)
        with pytest.raises(SimulationError):
            rm.release_container(container)

    def test_impossible_request_rejected_eagerly(self):
        _sim, _cluster, rm = make_rm()
        with pytest.raises(SimulationError):
            rm.allocate(req(mb=7 * 1024))  # exceeds the 6 GB node pool

    def test_cancel_pending_request(self):
        sim, cluster, rm = make_rm(num_slaves=1)
        for _ in range(6):
            sim.run_until_complete(rm.allocate(req()))
        r = req()
        rm.allocate(r)
        assert rm.cancel(r)
        assert not rm.cancel(r)

    def test_fifo_grant_order(self):
        sim, _cluster, rm = make_rm()
        g1 = rm.allocate(req())
        g2 = rm.allocate(req())
        c1 = sim.run_until_complete(g1)
        c2 = sim.run_until_complete(g2)
        assert c1.container_id < c2.container_id

    def test_usage_accounting(self):
        sim, _cluster, rm = make_rm()
        c = sim.run_until_complete(rm.allocate(req(mb=2048)))
        assert rm.app_memory_usage("a") == 2 * GB
        rm.release_container(c)
        assert rm.app_memory_usage("a") == 0

    def test_cluster_memory_utilization(self):
        sim, cluster, rm = make_rm(num_slaves=2)
        sim.run_until_complete(rm.allocate(req(mb=6 * 1024)))
        assert rm.cluster_memory_utilization() == pytest.approx(0.5)


class TestNodeManager:
    def test_launch_runs_task_and_completes_container(self):
        sim, cluster, rm = make_rm()
        container = sim.run_until_complete(rm.allocate(req()))
        nm = NodeManager(sim, container.node)

        def task():
            yield sim.timeout(3.0)
            return "done"

        proc = nm.launch(container, task())
        assert container.state is ContainerState.RUNNING
        assert nm.running_containers == 1
        result = sim.run_until_complete(proc)
        assert result == "done"
        assert container.state is ContainerState.COMPLETED
        assert nm.running_containers == 0

    def test_launch_on_wrong_node_rejected(self):
        sim, cluster, rm = make_rm(num_slaves=2)
        container = sim.run_until_complete(rm.allocate(req()))
        other = next(n for n in cluster.nodes if n is not container.node)
        nm = NodeManager(sim, other)
        with pytest.raises(SimulationError):
            nm.launch(container, iter(()))

    def test_cannot_launch_twice(self):
        sim, cluster, rm = make_rm()
        container = sim.run_until_complete(rm.allocate(req()))
        nm = NodeManager(sim, container.node)

        def task():
            yield sim.timeout(1.0)

        nm.launch(container, task())
        with pytest.raises(SimulationError):
            nm.launch(container, task())

    def test_finish_observer_called(self):
        sim, cluster, rm = make_rm()
        container = sim.run_until_complete(rm.allocate(req()))
        nm = NodeManager(sim, container.node)
        finished = []
        nm.on_container_finished.append(finished.append)

        def task():
            yield sim.timeout(1.0)

        sim.run_until_complete(nm.launch(container, task()))
        assert finished == [container]

    @pytest.mark.parametrize("state", [NodeState.DRAINING, NodeState.LOST])
    def test_launch_refused_unless_active(self, state):
        sim, cluster, rm = make_rm()
        container = sim.run_until_complete(rm.allocate(req()))
        nm = NodeManager(sim, container.node)
        container.node.state = state
        with pytest.raises(SimulationError, match=state.value):
            nm.launch(container, iter(()))
        assert container.state is ContainerState.ALLOCATED
