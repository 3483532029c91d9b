"""Elastic cluster churn end to end: decommission, join, spot preempt.

Timing anchors (fault-free, seed 0, 4 slaves, 8 maps / 4 reduces):
maps run ~0.5-23s, reduces ~23-67s, and every node hosts both kinds,
so churn events pinned inside those windows reliably hit live work.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.node import NodeState
from repro.cluster.topology import ClusterSpec
from repro.core.configuration import Configuration
from repro.core.hill_climbing import HillClimbSettings
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.experiments.harness import SimCluster
from repro.faults import ElasticCluster, Fault, FaultPlan
from repro.mapreduce.counters import Counter
from repro.mapreduce.jobspec import JobSpec, TaskId, TaskType, WorkloadProfile
from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.statistics import TaskStats
from repro.testing import assert_no_output_leaks
from repro.workloads.datasets import DatasetSpec
from repro.yarn.app_master import FaultToleranceSettings, SpeculationSettings
from tests.faults.tuned_scenarios import run_full_churn
from tests.pins import check

MB = 1024**2


def small_cluster(seed=0, ft=None):
    return SimCluster(
        seed=seed,
        cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=False,
        fault_tolerance=ft or FaultToleranceSettings(),
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


def run_with_faults(sc, plan, max_events=10_000_000, **spec_kw):
    sc.inject_faults(plan=plan)
    am = sc.submit(small_spec(sc, **spec_kw))
    result = sc.sim.run_until_complete(am.completion, max_events=max_events)
    return am, result


class TestDecommission:
    def test_graceful_drain_kills_nothing(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=30.0, kind="node_decommission", node_id=2),))
        am, result = run_with_faults(sc, plan)
        assert result.succeeded
        # Graceful: running work finishes, nothing is ever killed.
        assert result.counters[Counter.KILLED_TASK_ATTEMPTS] == 0
        assert result.failure_reasons.get("preempted", 0) == 0
        elastic = sc.fault_injector.elastic
        assert elastic.departed == [(2, "decommission")]
        node = sc.cluster.node(2)
        assert node.state is NodeState.DEPARTED and not node.alive
        assert_no_output_leaks(sc.hdfs)

    def test_no_new_work_lands_after_drain(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=30.0, kind="node_decommission", node_id=2),))
        _, result = run_with_faults(sc, plan)
        for s in result.stats_of(TaskType.REDUCE):
            if s.node_id == 2:
                assert s.start_time <= 30.0
        assert result.succeeded

    def test_idle_node_departs_immediately(self):
        # At t=0 nothing has launched yet: zero running containers means
        # the drain completes on the spot instead of waiting for work.
        sc = small_cluster()
        plan = FaultPlan((Fault(time=0.0, kind="node_decommission", node_id=3),))
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert sc.fault_injector.elastic.departed == [(3, "decommission")]
        # The whole job ran on the surviving three nodes.
        for s in result.stats_of(TaskType.MAP) + result.stats_of(TaskType.REDUCE):
            assert s.node_id != 3


class TestJoin:
    def test_new_node_registers_and_takes_work(self):
        sc = small_cluster()
        plan = FaultPlan((Fault(time=1.0, kind="node_join", node_id=0),))
        # Enough blocks that the original four nodes stay saturated and
        # the scheduler has real queue pressure to spill onto the newcomer.
        _, result = run_with_faults(sc, plan, blocks=24)
        assert result.succeeded
        # Ids are sequential: a 4-slave cluster's newcomer is node 4.
        assert len(sc.cluster.nodes) == 5
        newcomer = sc.cluster.node(4)
        assert newcomer.alive and newcomer.state is NodeState.ACTIVE
        assert newcomer.rack == sc.cluster.node(0).rack
        assert 4 in sc.node_managers
        assert sc.fault_injector.elastic.joined == [4]
        # A node that joined before the map phase ended really ran tasks.
        assert any(
            s.node_id == 4 and not s.failed
            for s in result.stats_of(TaskType.MAP) + result.stats_of(TaskType.REDUCE)
        )

    def test_join_then_decommission_the_newcomer(self):
        sc = small_cluster()
        plan = FaultPlan(
            (
                Fault(time=1.0, kind="node_join", node_id=0),
                Fault(time=40.0, kind="node_decommission", node_id=4),
            )
        )
        _, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert sc.fault_injector.elastic.joined == [4]
        assert (4, "decommission") in sc.fault_injector.elastic.departed


class TestSpotPreempt:
    def test_grace_window_migration(self):
        # A preemption notice mid-reduce: the AM must migrate the doomed
        # attempts during the grace window and the job must not need a
        # crash-style re-execution afterwards.
        ft = FaultToleranceSettings(speculation=SpeculationSettings())
        sc = small_cluster(ft=ft)
        plan = FaultPlan(
            (Fault(time=30.0, kind="spot_preempt", node_id=1, duration=6.0),)
        )
        am, result = run_with_faults(sc, plan)
        assert result.succeeded
        assert am.preempt_migrations >= 1
        assert result.counters[Counter.KILLED_TASK_ATTEMPTS] >= 1
        assert sc.fault_injector.elastic.departed == [(1, "spot_preempt")]
        assert result.failure_reasons.get("preempted", 0) >= 1
        assert_no_output_leaks(sc.hdfs)

    def test_migrated_attempts_survive_the_kill(self):
        ft = FaultToleranceSettings(speculation=SpeculationSettings())
        sc = small_cluster(ft=ft)
        plan = FaultPlan(
            (Fault(time=30.0, kind="spot_preempt", node_id=1, duration=6.0),)
        )
        _, result = run_with_faults(sc, plan)
        # Every reduce output exists despite the reclaimed node.
        ok_reds = [s for s in result.stats_of(TaskType.REDUCE) if not s.failed]
        assert len(ok_reds) == 4
        assert len(sc.hdfs.list_prefix("/out/")) == 4
        # Winners that started after the notice cannot be on the doomed node.
        for s in ok_reds:
            if s.start_time > 30.0:
                assert s.node_id != 1


class TestPreemptEdges:
    """Grace-window edge cases, driven directly on the elastic manager."""

    def elastic(self, sc):
        return ElasticCluster(sc.sim, sc.cluster, sc.node_managers, sc.rm)

    def test_notice_with_zero_running_containers(self):
        # No job: the notice drains an idle node and the kill reclaims it
        # at the deadline without ever killing anything.
        sc = small_cluster()
        el = self.elastic(sc)
        assert el.preempt_notice(1, grace=2.0)
        nm = sc.node_managers[1]
        assert sc.cluster.node(1).state is NodeState.DRAINING
        sc.sim.run(until=5.0)
        assert sc.cluster.node(1).state is NodeState.DEPARTED
        assert el.departed == [(1, "spot_preempt")]
        assert nm.kills == {}  # nothing was running, nothing was killed

    def test_back_to_back_notices_on_same_node(self):
        sc = small_cluster()
        el = self.elastic(sc)
        assert el.preempt_notice(2, grace=3.0)
        assert not el.preempt_notice(2, grace=1.0)  # already under notice
        sc.sim.run(until=10.0)
        # Only one reclaim happened, and a post-departure notice is moot.
        assert el.departed == [(2, "spot_preempt")]
        assert not el.preempt_notice(2, grace=1.0)

    def test_notice_on_draining_node_refused(self):
        sc = small_cluster()
        el = self.elastic(sc)
        assert el.decommission(3)  # idle: departs immediately
        assert not el.preempt_notice(3, grace=1.0)
        assert el.departed == [(3, "decommission")]

    def test_kill_is_moot_if_node_crashed_during_grace(self):
        sc = small_cluster()
        el = self.elastic(sc)
        assert el.preempt_notice(0, grace=4.0)
        sc.cluster.node(0).fail()  # crash inside the grace window
        sc.sim.run(until=10.0)
        # The reclaim found a corpse: no departure is recorded.
        assert el.departed == []
        assert sc.cluster.node(0).state is NodeState.DRAINING


def result_digest(result):
    return hashlib.sha256(
        repr(
            (
                result.succeeded,
                result.duration,
                result.counters.snapshot(),
                sorted(result.failure_reasons.items()),
            )
        ).encode()
    ).hexdigest()


class TestCrashComposesWithChurn:
    """Heartbeat expiry meets a draining node and a mid-run joiner."""

    def run_traced(self, plan, watch):
        """Run *plan*; also return the membership moves, node *watch*'s
        state sequence and the heartbeat timers started."""
        sc = small_cluster()
        seen, states = [], []

        def on_event(ev):
            seen.append(ev)
            if watch < len(sc.cluster.nodes):  # a joiner exists once it joined
                state = sc.cluster.node(watch).state
                if not states or states[-1] is not state:
                    states.append(state)

        sc.telemetry.subscribe(on_event, categories=("yarn", "node", "sim"))
        _, result = run_with_faults(sc, plan)
        moves = [
            (ev.kind, ev.time, ev.node_id)
            for ev in seen
            if ev.kind in ("node_lost", "capacity_change")
        ]
        timers = [
            (ev.time, ev.name)
            for ev in seen
            if ev.kind == "process_start"
            and (ev.name == "rm-liveness" or ev.name.endswith("-hb"))
        ]
        return sc, result, moves, states, timers

    def test_crash_during_drain(self):
        # The drain's running containers are killed when the crashed
        # node expires; the last kill settling completes the departure.
        plan = FaultPlan(
            (
                Fault(time=30.0, kind="node_decommission", node_id=2),
                Fault(time=33.0, kind="node_crash", node_id=2),
            )
        )
        sc, result, moves, states, timers = self.run_traced(plan, watch=2)
        assert result.succeeded
        assert result.failure_reasons == {"node_lost": 1}
        assert moves == [("node_lost", 45.0, 2), ("capacity_change", 45.0, 2)]
        assert sc.fault_injector.elastic.departed == [(2, "decommission")]
        assert states == [
            NodeState.ACTIVE, NodeState.DRAINING, NodeState.LOST, NodeState.DEPARTED,
        ]
        # One heartbeat timer for the whole seed cluster.
        assert timers == [(0.0, "rm-liveness")]
        check("elastic/crash-during-drain", result_digest(result))

    def test_crash_of_a_joined_node(self):
        # The joiner beats on its own 1.3 + 3k grid, so its expiry lands
        # on the first sweep past 19.3 + 12.
        plan = FaultPlan(
            (
                Fault(time=1.3, kind="node_join", node_id=0),
                Fault(time=20.0, kind="node_crash", node_id=4),
                Fault(time=24.0, kind="node_crash", node_id=1),
            )
        )
        sc, result, moves, states, timers = self.run_traced(plan, watch=4)
        assert states == [NodeState.ACTIVE, NodeState.LOST]
        # The seed timer plus one per join.
        assert timers == [(0.0, "rm-liveness"), (1.3, "node04-hb")]
        assert moves == [
            ("capacity_change", 1.3, 4),
            ("node_lost", 33.0, 4),
            ("node_lost", 36.0, 1),
        ]
        assert result.succeeded
        assert result.failure_reasons == {"node_lost": 1}
        assert round(result.duration, 3) == 66.910
        check("elastic/crash-of-a-joined-node", result_digest(result))


class TestBlacklistEscapeAfterDecommission:
    def test_fully_blacklisted_shrunk_cluster_still_schedules(self, monkeypatch):
        # Threshold 1 + a kill on three nodes blacklists them; the fourth
        # then decommissions, so the only schedulable nodes are all
        # blacklisted.  The escape hatch must work over the *live* set.
        monkeypatch.setattr("repro.yarn.app_master.BLACKLIST_THRESHOLD", 1)
        sc = small_cluster()
        plan = FaultPlan(
            (
                Fault(time=26.0, kind="container_kill", node_id=0),
                Fault(time=27.0, kind="container_kill", node_id=1),
                Fault(time=28.0, kind="container_kill", node_id=2),
                Fault(time=30.0, kind="node_decommission", node_id=3),
            )
        )
        am, result = run_with_faults(sc, plan)
        assert am.blacklisted_nodes >= {0, 1, 2}
        assert (3, "decommission") in sc.fault_injector.elastic.departed
        assert result.succeeded
        assert_no_output_leaks(sc.hdfs)


class TestMonitorUnderChurn:
    """Satellite: utilization aggregation stays correct as membership moves."""

    def monitor(self):
        return CentralMonitor()

    def sample(self, mon, node_id, time, cpu):
        mon.ingest([(node_id, time, cpu, cpu, 1, 0.0, 0.0)])

    def test_departed_node_capped_at_departure(self):
        mon = self.monitor()
        # Node 0 holds 1.0 throughout; node 1 holds 1.0 then departs at
        # t=10 -- its post-departure ghost samples must not count.
        for t in (0.0, 5.0, 10.0):
            self.sample(mon, 0, t, 1.0)
            self.sample(mon, 1, t, 1.0)
        mon.on_capacity_change(1, "depart", 10.0)
        self.sample(mon, 1, 20.0, 0.0)  # stale ghost sample
        assert mon.mean_cpu_utilization() == pytest.approx(1.0)

    def test_node_departed_before_window_excluded(self):
        mon = self.monitor()
        self.sample(mon, 0, 0.0, 0.0)
        self.sample(mon, 0, 50.0, 0.0)
        self.sample(mon, 1, 0.0, 1.0)
        self.sample(mon, 2, 0.0, 1.0)
        mon.on_capacity_change(1, "depart", 5.0)
        mon.on_capacity_change(2, "depart", 0.0)
        # The window opens at time 0: node 2, gone by then, is left out;
        # node 1, gone within it, still counts.
        assert mon.mean_cpu_utilization() == 0.5
        assert mon.mean_memory_utilization() == 0.5

    def test_joined_node_widens_the_denominator(self):
        mon = self.monitor()
        self.sample(mon, 0, 0.0, 1.0)
        self.sample(mon, 0, 20.0, 1.0)
        mon.on_capacity_change(4, "join", 10.0)
        self.sample(mon, 4, 10.0, 0.0)
        self.sample(mon, 4, 20.0, 0.0)
        assert mon.mean_cpu_utilization() == pytest.approx(0.5)

    def test_timeline_until_caps_the_window(self):
        mon, uncapped = self.monitor(), self.monitor()
        for t, v in ((0.0, 1.0), (10.0, 1.0)):
            self.sample(mon, 0, t, v)
            self.sample(uncapped, 0, t, v)
        mon.on_capacity_change(0, "depart", 10.0)
        for t, v in ((20.0, 0.0), (30.0, 0.0)):
            self.sample(mon, 0, t, v)
            self.sample(uncapped, 0, t, v)
        assert uncapped.mean_cpu_utilization() < 1.0
        assert mon.mean_cpu_utilization() == 1.0
        # A node whose every sample came after its departure counts as 0.
        mon.on_capacity_change(1, "depart", 25.0)
        self.sample(mon, 1, 30.0, 1.0)
        assert mon.mean_cpu_utilization() == 0.5

    def test_end_to_end_monitor_survives_churn(self):
        # Real run with monitors on: churn must not corrupt aggregation
        # (denominator tracks live membership, means stay in [0, 1]).
        sc = SimCluster(
            seed=0,
            cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
            fault_tolerance=FaultToleranceSettings(
                speculation=SpeculationSettings()
            ),
        )
        plan = FaultPlan(
            (
                Fault(time=1.0, kind="node_join", node_id=0),
                Fault(time=25.0, kind="node_decommission", node_id=2),
                Fault(time=30.0, kind="spot_preempt", node_id=1, duration=6.0),
            )
        )
        am, result = run_with_faults(sc, plan)
        assert result.succeeded
        mon = sc.monitor
        assert set(mon.departed_nodes) == {1, 2}
        assert sc.fault_injector.elastic.joined == [4]
        assert 0.0 <= mon.mean_cpu_utilization() <= 1.0
        assert 0.0 <= mon.mean_memory_utilization() <= 1.0


    def test_each_join_samples_on_its_own_timer(self):
        # Joined nodes are sampled from the instant they join, on one
        # timer per join; a departed node's samples stop.
        sc = SimCluster(
            seed=0,
            cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
            fault_tolerance=FaultToleranceSettings(),
        )
        seen = []
        sc.telemetry.subscribe(seen.append, categories=("node", "sim"))
        plan = FaultPlan(
            (
                Fault(time=1.3, kind="node_join", node_id=0),
                Fault(time=7.9, kind="node_join", node_id=2),
                Fault(time=12.0, kind="node_decommission", node_id=4),
            )
        )
        am, result = run_with_faults(sc, plan)
        assert result.succeeded
        timers = [
            ev for ev in seen
            if ev.kind == "process_start" and ev.name == "slave-monitor"
        ]
        # One timer per join (the seed nodes' timer started with the cluster).
        assert [ev.time for ev in timers] == [1.3, 7.9]
        times = {}
        for ev in seen:
            if ev.kind == "node_sample":
                times.setdefault(ev.stats.node_id, []).append(ev.time)
        departed_at = sc.monitor.departed_nodes[4]
        assert times[4][0] == 1.3 and times[4][-1] <= departed_at
        assert times[5][:2] == [7.9, 7.9 + 5.0]
        assert times[0][:2] == [0.0, 5.0]


class TestTunerCapacityAwareness:
    """Tentpole: capacity-shifted waves are excluded from the search."""

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

    POINT = [(50.0, 50.0, "capacity")]
    OUTAGE = [(30.0, 70.0, "outage")]
    CRASH = [(30.0, 70.0, "crash")]
    FETCH = {"fetch_retries": 2}
    KILLED = {"failed": True, "failure_kind": "killed"}
    OOM = {"failed": True, "failure_kind": "oom"}

    @pytest.mark.parametrize(
        "windows, start, end, stats_kw, expected",
        [
            # Point window (a capacity change): inclusive at both ends.
            pytest.param(POINT, 40.0, 60.0, {}, "capacity", id="point-straddles"),
            pytest.param(POINT, 50.0, 50.0, {}, "capacity", id="point-instant"),
            pytest.param(POINT, 0.0, 50.0, {}, "capacity", id="point-at-end"),
            pytest.param(POINT, 50.0, 70.0, {}, "capacity", id="point-at-start"),
            pytest.param(POINT, 0.0, 49.9, {}, None, id="point-before"),
            pytest.param(POINT, 50.1, 70.0, {}, None, id="point-after"),
            # Interval window (an outage or crash): any overlap counts.
            pytest.param(OUTAGE, 20.0, 30.0, {}, "outage", id="interval-touch-start"),
            pytest.param(OUTAGE, 70.0, 80.0, {}, "outage", id="interval-touch-end"),
            pytest.param(OUTAGE, 40.0, 50.0, {}, "outage", id="interval-inside"),
            pytest.param(OUTAGE, 0.0, 100.0, {}, "outage", id="interval-covers"),
            pytest.param(OUTAGE, 0.0, 29.9, {}, None, id="interval-before"),
            pytest.param(OUTAGE, 70.1, 90.0, {}, None, id="interval-after"),
            pytest.param(CRASH, 69.0, 75.0, {}, "outage", id="crash-is-outage"),
            # Capacity outranks outage; a window outranks fetch damage.
            pytest.param(OUTAGE + POINT, 40.0, 60.0, {}, "capacity", id="capacity-first"),
            pytest.param(OUTAGE, 40.0, 50.0, FETCH, "outage", id="window-before-fetch"),
            # No window: fetch inflation and environmental loss.
            pytest.param([], 0.0, 10.0, FETCH, "fetch", id="fetch-retries"),
            pytest.param([], 0.0, 10.0, KILLED, "fetch", id="env-failure"),
            pytest.param([], 0.0, 10.0, OOM, None, id="oom-is-evidence"),
            pytest.param([], 0.0, 10.0, {}, None, id="clean"),
        ],
    )
    def test_quarantine_reason(self, windows, start, end, stats_kw, expected):
        tuner, _ = self.make_tuner()
        tuner.quarantine_windows.extend(windows)
        stats = TaskStats(
            task_id=TaskId("job_0001", TaskType.MAP, 0),
            task_type=TaskType.MAP, node_id=0, attempt=1, config={},
            start_time=start, end_time=end, cpu_seconds=1.0, allocated_cores=1.0,
            working_set_bytes=MB, container_memory_bytes=MB, **stats_kw,
        )
        assert tuner.quarantine_reason(stats) == expected

    def test_capacity_change_flags_open_searches_and_reclamps(self):
        from repro.core import parameters as P

        tuner, spec = self.make_tuner()
        state = tuner._jobs[spec.job_id].search_states[TaskType.REDUCE]
        assert state.quarantine_mark == len(tuner.quarantine_windows) == 0
        tuner.note_capacity_change(12.0, live_nodes=3)
        # The window lands after the open batch's mark: the batch is tainted.
        assert tuner.quarantine_windows == [(12.0, 12.0, "capacity")]
        assert state.quarantine_mark == 0
        assert any(
            "capacity change at t=12.0" in line for line in state.rule_log
        )
        # The running config steps down to the live fan-out ceiling.
        cfg = tuner.configurator.job_config(spec.job_id)
        assert float(cfg[P.SHUFFLE_PARALLELCOPIES]) <= 3.0

    def test_shifted_wave_rolls_back_instead_of_scoring(self):
        tuner, spec = self.make_tuner()
        state = tuner._jobs[spec.job_id].search_states[TaskType.MAP]
        state.admitted = 1000
        index = 0
        for wave, shifted in ((1, False), (2, True)):
            if shifted:
                tuner.note_capacity_change(5.0, live_nodes=3)
            for sample in list(state.climber.pending_samples()):
                tid = TaskId(spec.job_id, TaskType.MAP, index)
                state.bindings[str(tid)] = sample.sample_id
                tuner.on_task_stats(TaskStats(
                    task_id=tid, task_type=TaskType.MAP, node_id=0, attempt=0,
                    config={}, start_time=0.0, end_time=10.0 + index,
                    cpu_seconds=5.0, allocated_cores=1.0,
                    working_set_bytes=100 * MB,
                    container_memory_bytes=200 * MB, wave=wave,
                ))
                index += 1
        assert any(
            "capacity-shifted" in line for line in state.rule_log
        )
        # The re-proposed batch opened after the window: it is clean.
        assert state.quarantine_mark == len(tuner.quarantine_windows)
        assert state.climber.pending_samples()  # search re-proposed

    def test_tuned_job_survives_full_churn(self):
        # Integration: aggressive tuning + decommission + join + preempt.
        sc, tuner, spec, result, _ = run_full_churn()
        assert result.succeeded
        # The churn reached the tuner as capacity-change notifications.
        assert any(kind == "capacity" for *_, kind in tuner.quarantine_windows)
        logs = [
            line
            for state in tuner._jobs[spec.job_id].search_states.values()
            for line in state.rule_log
        ]
        assert any("capacity change at t=" in line for line in logs)
        assert_no_output_leaks(sc.hdfs)
