"""Tests for the cluster network model."""

import pytest

from repro.cluster.node import MB, NodeResources
from repro.cluster.topology import Cluster, ClusterSpec, build_cluster, paper_cluster_spec
from repro.sim import Simulator
from repro.sim.resources import Link


def small_cluster(sim=None, nic=100 * MB, uplink=None):
    sim = sim or Simulator()
    spec = ClusterSpec(
        num_slaves=4,
        racks=(2, 2),
        node_resources=NodeResources(nic_bw=nic),
        rack_uplink_bw=uplink,
    )
    return sim, Cluster(sim, spec)


class TestTransfers:
    def test_same_rack_transfer_duration(self):
        sim, cluster = small_cluster()
        a, b = cluster.nodes[0], cluster.nodes[1]
        assert a.rack == b.rack
        done = cluster.network.transfer(a, b, 200 * MB)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(2.0)

    def test_local_transfer_is_free(self):
        sim, cluster = small_cluster()
        a = cluster.nodes[0]
        done = cluster.network.transfer(a, a, 10**12)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(0.0)

    def test_cross_rack_limited_by_uplink(self):
        sim, cluster = small_cluster(uplink=50 * MB)
        a, b = cluster.nodes[0], cluster.nodes[2]
        assert a.rack != b.rack
        done = cluster.network.transfer(a, b, 100 * MB)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(2.0)

    def test_concurrent_transfers_share_rx(self):
        sim, cluster = small_cluster()
        dst = cluster.nodes[0]
        src1, src2 = cluster.nodes[1], cluster.nodes[1]
        d1 = cluster.network.transfer(cluster.nodes[1], dst, 100 * MB)
        # Different sender, same receiver: RX link is the bottleneck...
        # but sender 1's TX carries both if the same source is used, so
        # use a distinct same-rack source via node index 1 twice is the
        # same node; this asserts TX sharing instead.
        sim.run_until_complete(d1)
        assert sim.now > 0

    def test_two_senders_one_receiver_share_rx(self):
        sim, cluster = small_cluster()
        dst, s1 = cluster.nodes[0], cluster.nodes[1]
        spec = ClusterSpec(num_slaves=4, racks=(4,), node_resources=NodeResources(nic_bw=100 * MB))
        # single-rack cluster avoids uplink effects
        sim2 = Simulator()
        c2 = Cluster(sim2, spec)
        d1 = c2.network.transfer(c2.nodes[1], c2.nodes[0], 100 * MB)
        d2 = c2.network.transfer(c2.nodes[2], c2.nodes[0], 100 * MB)
        sim2.run_until_complete(d1)
        sim2.run_until_complete(d2)
        assert sim2.now == pytest.approx(2.0)  # 200 MB through one 100 MB/s RX

    def test_transfer_cap_respected(self):
        sim, cluster = small_cluster()
        a, b = cluster.nodes[0], cluster.nodes[1]
        copier = Link("copier", 10 * MB)
        done = cluster.network.transfer(a, b, 100 * MB, extra_links=[copier])
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(10.0)


class TestFetchInto:
    def test_fetch_charges_rx(self):
        sim, cluster = small_cluster()
        dst = cluster.nodes[0]
        done = cluster.network.fetch_into(dst, 100 * MB)
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(1.0)

    def test_fetch_with_copier_link_cap(self):
        sim, cluster = small_cluster()
        dst = cluster.nodes[0]
        copiers = Link("copiers", 20 * MB)
        done = cluster.network.fetch_into(dst, 100 * MB, extra_links=[copiers])
        sim.run_until_complete(done)
        assert sim.now == pytest.approx(5.0)

    def test_many_fetches_bounded_by_core(self):
        # Core capacity = sum of uplinks; with tiny uplinks the fabric
        # core becomes the aggregate bottleneck.
        sim, cluster = small_cluster(uplink=25 * MB)  # core = 50 MB/s
        d1 = cluster.network.fetch_into(cluster.nodes[0], 50 * MB)
        d2 = cluster.network.fetch_into(cluster.nodes[2], 50 * MB)
        sim.run_until_complete(d1)
        sim.run_until_complete(d2)
        assert sim.now == pytest.approx(2.0)


class TestMonitoring:
    def test_rx_utilization(self):
        sim, cluster = small_cluster()
        dst = cluster.nodes[0]
        cluster.network.fetch_into(dst, 10**10)
        sim.run(until=0.5)
        rx, _tx = cluster.network.nic_links([dst])
        assert cluster.network.scheduler.utilization(rx) == pytest.approx(1.0)

    def test_idle_utilization_zero(self):
        _sim, cluster = small_cluster()
        _rx, tx = cluster.network.nic_links([cluster.nodes[0]])
        assert cluster.network.scheduler.utilization(tx) == 0.0

    def test_nic_utilizations_match_per_link_reads(self):
        sim, cluster = small_cluster(uplink=60 * MB)
        net = cluster.network
        joined = cluster.add_node(rack=1)
        n0, n1, n2, n3 = cluster.nodes[:4]
        # Overlapping flows: a shared RX, cross-rack uplinks, a flow
        # capped by a copier link, an aggregated fetch and traffic from
        # the joined node.
        net.transfer(n0, n1, 10**10)
        net.transfer(n2, n1, 10**10, extra_links=[Link("copier", 30 * MB)])
        net.transfer(n0, n3, 10**10)
        net.transfer(joined, n0, 10**10)
        net.fetch_into(n2, 10**10)
        net.freeze_node_nic(n3.node_id)
        sim.run(until=0.5)
        nodes = [joined, n3, n1, n0, n2]
        # The slave monitor's read: each node's RX then TX link, kept
        # as one tuple, through one utilizations call keyed by it.
        links = net.nic_links(nodes)
        used = net.scheduler.utilizations(links)
        assert net.scheduler.utilizations(links) is used
        # Bit for bit, not approximately: float == is exact.
        assert used == tuple(net.scheduler.utilization(link) for link in links)
        assert links[0::2] == tuple(net._rx[n.node_id] for n in nodes)
        assert links[1::2] == tuple(net._tx[n.node_id] for n in nodes)
        assert any(0.0 < u < 1.0 for u in used)
        assert net.nic_links([]) == ()
        assert net.scheduler.utilizations(net.nic_links([])) == ()


class TestTopology:
    def test_paper_cluster_shape(self):
        cluster = build_cluster(Simulator())
        assert len(cluster.nodes) == 18
        racks = {n.rack for n in cluster.nodes}
        assert racks == {0, 1}

    def test_rack_sizes_must_sum(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_slaves=5, racks=(2, 2))

    def test_total_resources(self):
        cluster = build_cluster(Simulator())
        assert cluster.total_yarn_vcores == 18 * 28
        assert cluster.total_yarn_memory == 18 * 6 * 1024**3

    def test_node_ids_sequential(self):
        cluster = build_cluster(Simulator())
        assert [n.node_id for n in cluster.nodes] == list(range(18))

    def test_paper_spec_is_default(self):
        assert paper_cluster_spec().num_slaves == 18
