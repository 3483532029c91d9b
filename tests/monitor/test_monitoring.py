"""Tests for the monitoring stack."""

import pytest

from repro.cluster.topology import Cluster, ClusterSpec
from repro.mapreduce.jobspec import TaskId, TaskType
from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.slave_monitor import SlaveMonitor
from repro.monitor.statistics import NodeStats, TaskStats, _NodeMeans
from repro.sim import Simulator
from repro.yarn.node_manager import NodeManager
from tests.monitor.test_sample_pins import Recorder

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


def cpu_mean(*samples):
    """The monitor's CPU mean over ``(node_id, time, cpu)`` *samples*."""
    mon = CentralMonitor()
    mon.ingest([(node_id, t, cpu, 0.0, 0, 0.0, 0.0) for node_id, t, cpu in samples])
    return mon.mean_cpu_utilization()


class TestTimeline:
    """One node's time-weighted mean, from its first sample to its last."""

    def test_time_weighted_mean(self):
        # 0 holds over [0, 10), 1 over [10, 20): each value holds until
        # the next sample.
        assert cpu_mean((0, 0.0, 0.0), (0, 10.0, 1.0), (0, 20.0, 1.0)) == 0.5
        assert cpu_mean((0, 0.0, 0.2), (0, 10.0, 0.8), (0, 40.0, 0.0)) == pytest.approx(
            (0.2 * 10 + 0.8 * 30) / 40
        )

    def test_single_sample(self):
        assert cpu_mean((0, 5.0, 0.7)) == 0.7
        # A node's one sample is its mean as is: -0.0 keeps its sign
        # (the average over nodes, a ``sum``, would drop it anyway).
        assert repr(_NodeMeans(5.0, -0.0, -0.0).means()) == "(-0.0, -0.0)"

    def test_zero_span_averages_plainly(self):
        samples = [(0, 5.0, v) for v in (0.1, 0.2, 0.3, 1e16, 1.0, -1e16)]
        assert repr(cpu_mean(*samples)) == repr(sum(v for _, _, v in samples) / 6)

    def test_empty(self):
        assert CentralMonitor().mean_cpu_utilization() == 0.0
        assert CentralMonitor().mean_memory_utilization() == 0.0


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
        mon.ingest([(0, 0.0, 0.2, 0.4, 1, 0.0, 0.0), (0, 10.0, 0.2, 0.4, 1, 0.0, 0.0)])
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
        SlaveMonitor(sim, cluster.network, CentralMonitor()).start(nms)
        sim.run(until=12.0)
        # Every tick samples each node, in node order, on one 5 s grid.
        assert [(ev.time, ev.stats.node_id) for ev in seen] == [
            (0.0, 0), (0.0, 1), (5.0, 0), (5.0, 1), (10.0, 0), (10.0, 1),
        ]

    def test_one_timer_per_start(self):
        sim, cluster, nms, seen = sampled_cluster(num_slaves=3)
        mon = SlaveMonitor(sim, cluster.network, CentralMonitor())
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
        SlaveMonitor(sim, cluster.network, CentralMonitor()).start(nms)
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
        sim, cluster, nms, _seen = sampled_cluster()
        node = cluster.nodes[0]
        node.compute(10_000.0, max_cores=4.0)
        sim.run(until=0.1)
        mon = CentralMonitor()
        recorder = Recorder(sim, sim.telemetry, mon)
        SlaveMonitor(sim, cluster.network, mon).start(nms)
        sim.run(until=0.2)
        (s,) = recorder.ingested
        assert s.cpu_utilization == pytest.approx(0.5)
        assert (s.node_id, s.time) == (0, 0.1)
        recorder.assert_monitor_matches()
        assert mon.mean_cpu_utilization() == s.cpu_utilization


class TestDaemonFailure:
    def test_failing_tick_fails_the_run(self):
        # Nothing waits on the slave-monitor timer: its failure must stop
        # the run rather than end the sampling unnoticed.
        from repro.experiments.harness import SimCluster
        from repro.workloads.suite import make_job_spec, terasort_case

        sc = SimCluster(seed=0, cluster_spec=ClusterSpec(num_slaves=2, racks=(2,)))
        ingest, calls = sc.monitor.ingest, []

        def flaky(rows):
            calls.append(rows)
            if len(calls) > 1:
                raise RuntimeError("tick failed")
            ingest(rows)

        sc.monitor.ingest = flaky
        with pytest.raises(RuntimeError, match="tick failed"):
            sc.run_job(make_job_spec(terasort_case(0.5), sc.hdfs))
        assert len(calls) == 2


class TestMonitorsOnTheBus:
    """The refactored wiring: monitors as telemetry-bus subscribers."""

    def test_central_monitor_consumes_bus_feeds(self):
        from repro.telemetry import CapacityChange, NodeSampled, TaskStatsRecorded, TelemetryBus

        sim = Simulator()
        bus = TelemetryBus(clock=lambda: sim.now)
        mon = CentralMonitor(bus=bus)
        assert not bus.wants("node")
        recorded = stats(job="a")
        bus.emit(TaskStatsRecorded(time=10.0, stats=recorded))
        assert mon.task_stats == [recorded]
        # Node samples and departures reach the monitor by direct call
        # only: with a watcher on ``node``, the events the slave monitor
        # publishes for it must not be counted a second time.
        bus.subscribe(lambda ev: None, categories=("node",))
        mon.ingest([(0, 5.0, 0.3, 0.6, 1, 0.0, 0.0)])
        bus.emit(NodeSampled(time=5.0, stats=NodeStats(0, 5.0, 0.3, 0.6, 1)))
        bus.emit(NodeSampled(time=10.0, stats=NodeStats(0, 10.0, 0.9, 0.9, 1)))
        bus.emit(CapacityChange(time=10.0, node_id=0, action="depart"))
        assert len(mon.node_samples) == 1
        assert mon.departed_nodes == {}
        assert mon.mean_cpu_utilization() == 0.3

    def test_slave_monitor_publishes_to_bus_without_sink(self):
        sim, cluster, nms, seen = sampled_cluster()
        SlaveMonitor(sim, cluster.network, CentralMonitor()).start(nms)
        sim.run(until=11.0)
        assert len(seen) == 3  # t = 0, 5, 10
        assert all(ev.category == "node" for ev in seen)

    def test_slave_monitor_without_bus_or_sink_is_silent(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        nm = NodeManager(sim, cluster.nodes[0])
        SlaveMonitor(sim, cluster.network, CentralMonitor()).start([nm])
        sim.run(until=11.0)  # nothing to assert beyond "does not raise"
