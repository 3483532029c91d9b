"""Tests for container scheduling policies."""

import pytest

from repro.cluster.node import GB, NodeState
from repro.cluster.topology import Cluster, ClusterSpec
from repro.sim import Simulator
from repro.yarn.fair_scheduler import FairScheduler
from repro.yarn.records import ContainerRequest, Priority, Resource
from repro.yarn.scheduler import FifoScheduler


def make_cluster(num_slaves=4, racks=(2, 2)):
    return Cluster(Simulator(), ClusterSpec(num_slaves=num_slaves, racks=racks))


def request(app="a", mb=1024, vcores=1, priority=Priority.MAP, preferred=()):
    return ContainerRequest(
        app_id=app,
        resource=Resource.of_mb(mb, vcores),
        priority=priority,
        preferred_nodes=tuple(preferred),
    )


class TestRecords:
    def test_resource_validation(self):
        with pytest.raises(ValueError):
            Resource(0, 1)
        with pytest.raises(ValueError):
            Resource(1024, 0)

    def test_fits_in(self):
        r = Resource.of_mb(1024, 2)
        assert r.fits_in(2 * GB, 4)
        assert not r.fits_in(512 * 1024**2, 4)
        assert not r.fits_in(2 * GB, 1)

    def test_request_ids_monotone(self):
        a, b = request(), request()
        assert b.request_id > a.request_id

    def test_priorities(self):
        assert Priority.REDUCE < Priority.MAP  # reduces preempt queue order


class TestSchedulableNodes:
    @pytest.mark.parametrize("state", [NodeState.DRAINING, NodeState.LOST])
    def test_only_active_nodes_are_schedulable(self, state):
        cluster = make_cluster()
        sched = FifoScheduler(cluster)
        cluster.node(1).state = state
        assert [n.node_id for n in sched.schedulable_nodes()] == [0, 2, 3]
        sched.add_app("a")
        sched.enqueue(request(preferred=(1,)))
        _picked, node = sched.assign_once()
        assert node.node_id != 1


class TestFifoScheduler:
    def test_unknown_app_rejected(self):
        sched = FifoScheduler(make_cluster())
        with pytest.raises(KeyError):
            sched.enqueue(request())

    def test_arrival_order_within_priority(self):
        sched = FifoScheduler(make_cluster())
        sched.add_app("a")
        r1, r2 = request(), request()
        sched.enqueue(r1)
        sched.enqueue(r2)
        picked, _node = sched.assign_once()
        assert picked is r1

    def test_priority_beats_arrival(self):
        sched = FifoScheduler(make_cluster())
        sched.add_app("a")
        map_req = request(priority=Priority.MAP)
        red_req = request(priority=Priority.REDUCE)
        sched.enqueue(map_req)
        sched.enqueue(red_req)
        picked, _node = sched.assign_once()
        assert picked is red_req

    def test_data_local_placement_preferred(self):
        cluster = make_cluster()
        sched = FifoScheduler(cluster)
        sched.add_app("a")
        sched.enqueue(request(preferred=[3]))
        _req, node = sched.assign_once()
        assert node.node_id == 3

    def test_rack_local_fallback(self):
        cluster = make_cluster()
        # Fill the preferred node completely.
        full = cluster.nodes[3]
        full.reserve(full.yarn_memory_total, 1)
        sched = FifoScheduler(cluster)
        sched.add_app("a")
        sched.enqueue(request(preferred=[3]))
        _req, node = sched.assign_once()
        assert node.rack == full.rack and node.node_id != 3

    def test_skips_unsatisfiable_head(self):
        cluster = make_cluster()
        for n in cluster.nodes:
            n.reserve(n.yarn_memory_total - 512 * 1024**2, 1)
        sched = FifoScheduler(cluster)
        sched.add_app("a")
        big = request(mb=4096)
        small = request(mb=512)
        sched.enqueue(big)
        sched.enqueue(small)
        picked, _node = sched.assign_once()
        assert picked is small  # head-of-line big request skipped

    def test_none_when_nothing_fits(self):
        cluster = make_cluster()
        for n in cluster.nodes:
            n.reserve(n.yarn_memory_total, 1)
        sched = FifoScheduler(cluster)
        sched.add_app("a")
        sched.enqueue(request())
        assert sched.assign_once() is None

    def test_variable_sized_request_tracking(self):
        """The paper's hash map of different-sized container requests."""
        sched = FifoScheduler(make_cluster())
        sched.add_app("a")
        sched.enqueue(request(mb=1024))
        sched.enqueue(request(mb=1024))
        sched.enqueue(request(mb=2048, vcores=2))
        assert sched.requested_sizes[Resource.of_mb(1024, 1)] == 2
        assert sched.requested_sizes[Resource.of_mb(2048, 2)] == 1
        sched.assign_once()
        assert sched.requested_sizes[Resource.of_mb(1024, 1)] == 1

    def test_cancel(self):
        sched = FifoScheduler(make_cluster())
        sched.add_app("a")
        r = request()
        sched.enqueue(r)
        assert sched.cancel(r)
        assert not sched.cancel(r)
        assert sched.pending_count == 0

    def test_remove_app_clears_requests(self):
        sched = FifoScheduler(make_cluster())
        sched.add_app("a")
        sched.enqueue(request())
        sched.remove_app("a")
        assert sched.pending_count == 0


class TestFairScheduler:
    def test_starved_app_served_first(self):
        cluster = make_cluster()
        sched = FairScheduler(cluster)
        sched.add_app("rich")
        sched.add_app("poor")
        sched.on_allocated("rich", Resource.of_mb(4096, 4))
        r_rich = request(app="rich")
        r_poor = request(app="poor")
        sched.enqueue(r_rich)
        sched.enqueue(r_poor)
        picked, _node = sched.assign_once()
        assert picked is r_poor

    def test_weights_scale_shares(self):
        cluster = make_cluster()
        sched = FairScheduler(cluster)
        sched.add_app("heavy", weight=4.0)
        sched.add_app("light", weight=1.0)
        # heavy has 2 GB but weight 4 => share 0.5 GB; light has 1 GB.
        sched.on_allocated("heavy", Resource.of_mb(2048, 1))
        sched.on_allocated("light", Resource.of_mb(1024, 1))
        r_heavy = request(app="heavy")
        r_light = request(app="light")
        sched.enqueue(r_light)
        sched.enqueue(r_heavy)
        picked, _node = sched.assign_once()
        assert picked is r_heavy

    def test_release_accounting(self):
        sched = FairScheduler(make_cluster())
        sched.add_app("a")
        res = Resource.of_mb(1024, 1)
        sched.on_allocated("a", res)
        sched.on_released("a", res)
        assert sched.app_memory_usage["a"] == 0

    def test_over_release_raises(self):
        sched = FairScheduler(make_cluster())
        sched.add_app("a")
        with pytest.raises(RuntimeError):
            sched.on_released("a", Resource.of_mb(1024, 1))

    def test_invalid_weight(self):
        sched = FairScheduler(make_cluster())
        with pytest.raises(ValueError):
            sched.add_app("a", weight=0)


@pytest.mark.parametrize("policy", [FifoScheduler, FairScheduler])
class TestFirstFitPass:
    """The first-fit pass both policies share (``SchedulerBase._first_fit``)."""

    def test_one_probe_per_missing_shape(self, policy, monkeypatch):
        cluster = make_cluster()
        for n in cluster.nodes:
            n.reserve(n.yarn_memory_total - 1024 * 1024**2, 1)
        sched = policy(cluster)
        sched.add_app("a")
        sched.add_app("b")
        for i in range(12):
            sched.enqueue(request(app=("a", "b")[i % 2], mb=2048))
        probes = []
        find_node = sched.find_node

        def counting_find_node(r):
            probes.append(r)
            return find_node(r)

        monkeypatch.setattr(sched, "find_node", counting_find_node)
        assert sched.assign_once() is None
        assert len(probes) == 1  # every request has the shape that missed

    def test_blacklisted_miss_does_not_hide_the_same_size(self, policy):
        cluster = make_cluster()
        for n in cluster.nodes[1:]:
            n.reserve(n.yarn_memory_total, 1)
        sched = policy(cluster)
        sched.add_app("a")
        blocked = ContainerRequest(
            app_id="a", resource=Resource.of_mb(1024, 1), blacklisted_nodes=(0,)
        )
        free = request(mb=1024)
        sched.enqueue(blocked)
        sched.enqueue(free)
        assert sched.find_node(blocked) is None
        picked, node = sched.assign_once()
        assert picked is free and node.node_id == 0
