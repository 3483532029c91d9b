"""Tests for the monitoring stack."""

import pytest

from repro.cluster.topology import Cluster, ClusterSpec
from repro.mapreduce.jobspec import TaskId, TaskType
from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.slave_monitor import SlaveMonitor
from repro.monitor.statistics import NodeStats, TaskStats, UtilizationTimeline
from repro.sim import Simulator
from repro.yarn.node_manager import NodeManager

MB = 1024**2


def stats(job="j1", task_type=TaskType.MAP, index=0, **over):
    base = dict(
        task_id=TaskId(job, task_type, index),
        task_type=task_type,
        node_id=0,
        attempt=1,
        config={},
        start_time=0.0,
        end_time=10.0,
        cpu_seconds=5.0,
        allocated_cores=1.0,
        working_set_bytes=512 * MB,
        container_memory_bytes=1024 * MB,
        spilled_records=100,
        map_output_records=100,
    )
    base.update(over)
    return TaskStats(**base)


class TestTaskStats:
    def test_duration(self):
        assert stats(start_time=2.0, end_time=12.0).duration == 10.0

    def test_memory_utilization_capped(self):
        s = stats(working_set_bytes=2048 * MB)
        assert s.memory_utilization == 1.0

    def test_cpu_utilization(self):
        assert stats().cpu_utilization == pytest.approx(0.5)

    def test_cpu_utilization_zero_duration(self):
        assert stats(end_time=0.0).cpu_utilization == 0.0

    def test_spill_ratio_map_prefers_combine_records(self):
        s = stats(spilled_records=200, map_output_records=400, combine_output_records=100)
        assert s.spill_ratio == pytest.approx(2.0)

    def test_spill_ratio_zero_denominator(self):
        assert stats(map_output_records=0, spilled_records=0).spill_ratio == 0.0
        assert stats(map_output_records=0, spilled_records=5).spill_ratio == 1.0

    def test_spill_ratio_reduce_uses_shuffled_records(self):
        # A reduce attempt's denominator is its shuffled record count --
        # map-side counters must not leak into the reduce ratio.
        s = stats(
            task_type=TaskType.REDUCE,
            spilled_records=50,
            map_output_records=1000,
            combine_output_records=500,
            reduce_input_records=200,
        )
        assert s.spill_ratio == pytest.approx(0.25)

    def test_spill_ratio_reduce_zero_denominator(self):
        s = stats(task_type=TaskType.REDUCE, reduce_input_records=0, spilled_records=0)
        assert s.spill_ratio == 0.0
        s = stats(task_type=TaskType.REDUCE, reduce_input_records=0, spilled_records=9)
        assert s.spill_ratio == 1.0

    def test_cpu_utilization_zero_cores(self):
        assert stats(allocated_cores=0.0).cpu_utilization == 0.0

    def test_cpu_utilization_capped(self):
        assert stats(cpu_seconds=1e6).cpu_utilization == 1.0

    def test_negative_duration_clamped(self):
        # A failed attempt can record end_time == start_time (or, with
        # clock skew in a real deployment, even earlier); never negative.
        assert stats(start_time=10.0, end_time=4.0).duration == 0.0


class TestTimeline:
    def test_time_weighted_mean(self):
        tl = UtilizationTimeline()
        tl.add(0.0, 0.0)
        tl.add(10.0, 1.0)  # value 0 held for 10s
        tl.add(20.0, 1.0)  # value 1 held for 10s
        assert tl.mean() == pytest.approx(0.5)

    def test_since_filter(self):
        tl = UtilizationTimeline()
        tl.add(0.0, 0.0)
        tl.add(10.0, 1.0)
        tl.add(20.0, 1.0)
        assert tl.mean(since=10.0) == pytest.approx(1.0)

    def test_single_sample(self):
        tl = UtilizationTimeline()
        tl.add(5.0, 0.7)
        assert tl.mean() == 0.7

    def test_empty(self):
        assert UtilizationTimeline().mean() == 0.0

    def test_window_carries_pre_window_level(self):
        # The level in effect when the window opens comes from the last
        # pre-window sample: value 0 still holds over [5, 10).
        tl = UtilizationTimeline()
        tl.add(0.0, 0.0)
        tl.add(10.0, 1.0)
        tl.add(20.0, 1.0)
        assert tl.mean(since=5.0) == pytest.approx(2.0 / 3.0)

    def test_window_aligned_with_sample_needs_no_boundary(self):
        tl = UtilizationTimeline()
        tl.add(0.0, 0.0)
        tl.add(10.0, 1.0)
        tl.add(20.0, 1.0)
        assert tl.mean(since=10.0) == pytest.approx(1.0)

    def test_window_past_last_sample_holds_the_level(self):
        tl = UtilizationTimeline()
        tl.add(0.0, 0.2)
        tl.add(10.0, 0.8)
        assert tl.mean(since=25.0) == pytest.approx(0.8)


class TestProgressBoard:
    def make_board(self):
        from repro.monitor.statistics import ProgressBoard

        return ProgressBoard()

    def tid(self, index=0, task_type=TaskType.MAP):
        return TaskId("j1", task_type, index)

    def test_start_update_finish_lifecycle(self):
        board = self.make_board()
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.update(self.tid(), 1, 0.5)
        (entry,) = board.running()
        assert entry.fraction == 0.5
        board.finish(self.tid(), 1)
        assert board.running() == []

    def test_update_is_monotonic_and_capped(self):
        board = self.make_board()
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.update(self.tid(), 1, 0.6)
        board.update(self.tid(), 1, 0.3)  # stale report never regresses
        assert board.running()[0].fraction == 0.6
        board.update(self.tid(), 1, 7.0)
        assert board.running()[0].fraction == 1.0

    def test_update_unknown_attempt_ignored(self):
        board = self.make_board()
        board.update(self.tid(), 1, 0.5)  # never started
        assert board.running() == []

    def test_get_finds_one_attempt_of_one_task(self):
        board = self.make_board()
        board.start(self.tid(), 2, TaskType.MAP, node_id=1, now=5.0)
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.start(self.tid(index=1), 1, TaskType.MAP, node_id=2, now=0.0)
        backup = board.get(self.tid(), 2)
        assert (str(backup.task_id), backup.attempt) == (str(self.tid()), 2)
        assert backup.node_id == 1 and backup.start_time == 5.0
        assert board.get(self.tid(index=1), 1).node_id == 2
        assert board.get(self.tid(index=1), 2) is None

    def test_speculative_finish_removes_only_that_attempt(self):
        # The loser of a speculative race is cleaned up independently of
        # the winner: finishing attempt 1 leaves the backup running.
        board = self.make_board()
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.start(self.tid(), 2, TaskType.MAP, node_id=1, now=5.0)
        board.finish(self.tid(), 1)
        assert board.get(self.tid(), 1) is None
        assert board.get(self.tid(), 2).attempt == 2
        board.finish(self.tid(), 2)
        assert board.running() == []

    def test_finish_is_idempotent(self):
        board = self.make_board()
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.finish(self.tid(), 1)
        board.finish(self.tid(), 1)  # double cleanup must not raise
        assert board.running() == []

    def test_running_order_is_deterministic(self):
        board = self.make_board()
        board.start(self.tid(index=2), 1, TaskType.REDUCE, node_id=0, now=0.0)
        board.start(self.tid(index=0), 1, TaskType.MAP, node_id=1, now=1.0)
        keys = [(str(p.task_id), p.attempt) for p in board.running()]
        assert keys == sorted(keys)


class TestCentralMonitor:
    def test_task_stats_routing(self):
        mon = CentralMonitor()
        a = stats(job="a")
        b = stats(job="b", task_type=TaskType.REDUCE, reduce_input_records=5)
        mon.on_task_stats(a)
        mon.on_task_stats(b)
        assert mon.task_stats == [a, b]

    def test_node_utilization_means(self):
        mon = CentralMonitor()
        mon.on_node_stats(
            NodeStats(0, 0.0, cpu_utilization=0.2, memory_utilization=0.4, running_containers=1)
        )
        mon.on_node_stats(
            NodeStats(0, 10.0, cpu_utilization=0.2, memory_utilization=0.4, running_containers=1)
        )
        assert mon.mean_cpu_utilization() == pytest.approx(0.2)
        assert mon.mean_memory_utilization() == pytest.approx(0.4)


def sampled_cluster(num_slaves=1):
    """A bus-attached simulator, its nodes' managers and the ``node`` feed."""
    from repro.telemetry import TelemetryBus

    sim = Simulator()
    bus = TelemetryBus(clock=lambda: sim.now)
    sim.attach_telemetry(bus)
    cluster = Cluster(sim, ClusterSpec(num_slaves=num_slaves, racks=(num_slaves,)))
    nms = [NodeManager(sim, node) for node in cluster.nodes]
    seen = []
    bus.subscribe(seen.append, categories=("node",))
    return sim, cluster, nms, seen


class TestSlaveMonitor:
    def test_periodic_sampling(self):
        sim, cluster, nms, seen = sampled_cluster(num_slaves=2)
        SlaveMonitor(sim, cluster.network).start(nms)
        sim.run(until=12.0)
        # Every tick samples each node, in node order, on one 5 s grid.
        assert [(ev.time, ev.stats.node_id) for ev in seen] == [
            (0.0, 0), (0.0, 1), (5.0, 0), (5.0, 1), (10.0, 0), (10.0, 1),
        ]

    def test_one_timer_per_start(self):
        sim, cluster, nms, seen = sampled_cluster(num_slaves=3)
        mon = SlaveMonitor(sim, cluster.network)
        mon.start(nms[:2])
        sim.run(until=1.5)
        mon.start(nms[2:])  # a later start keeps its own instant
        sim.run(until=7.0)
        assert [(ev.time, ev.stats.node_id) for ev in seen] == [
            (0.0, 0), (0.0, 1), (1.5, 2), (5.0, 0), (5.0, 1), (6.5, 2),
        ]
        # Two processes, each woken once: four events, not one per node.
        assert sim.events_executed == 4

    def test_departed_node_stops_sampling(self):
        sim, cluster, nms, seen = sampled_cluster(num_slaves=2)
        SlaveMonitor(sim, cluster.network).start(nms)
        sim.run(until=6.0)
        cluster.nodes[1].depart()
        sim.run(until=12.0)
        assert [(ev.time, ev.stats.node_id) for ev in seen] == [
            (0.0, 0), (0.0, 1), (5.0, 0), (5.0, 1), (10.0, 0),
        ]
        cluster.nodes[0].depart()
        sim.run()  # the timer ends with its last node: the calendar drains
        assert len(seen) == 5

    def test_sample_reflects_cpu_load(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        node = cluster.nodes[0]
        nm = NodeManager(sim, node)
        node.compute(10_000.0, max_cores=4.0)
        sim.run(until=0.1)
        (s,) = SlaveMonitor(sim, cluster.network).sample([nm])
        assert s.cpu_utilization == pytest.approx(0.5)
        assert (s.node_id, s.time) == (0, 0.1)


class TestMonitorsOnTheBus:
    """The refactored wiring: monitors as telemetry-bus subscribers."""

    def test_central_monitor_consumes_bus_feeds(self):
        from repro.telemetry import NodeSampled, TaskStatsRecorded, TelemetryBus

        sim = Simulator()
        bus = TelemetryBus(clock=lambda: sim.now)
        mon = CentralMonitor(bus=bus)
        recorded = stats(job="a")
        bus.emit(TaskStatsRecorded(time=10.0, stats=recorded))
        bus.emit(NodeSampled(time=5.0, stats=NodeStats(0, 5.0, 0.3, 0.6, 1)))
        assert mon.task_stats == [recorded]
        assert mon.mean_cpu_utilization() == pytest.approx(0.3)

    def test_slave_monitor_publishes_to_bus_without_sink(self):
        sim, cluster, nms, seen = sampled_cluster()
        SlaveMonitor(sim, cluster.network).start(nms)
        sim.run(until=11.0)
        assert len(seen) == 3  # t = 0, 5, 10
        assert all(ev.category == "node" for ev in seen)

    def test_slave_monitor_without_bus_or_sink_is_silent(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        nm = NodeManager(sim, cluster.nodes[0])
        SlaveMonitor(sim, cluster.network).start([nm])
        sim.run(until=11.0)  # nothing to assert beyond "does not raise"
