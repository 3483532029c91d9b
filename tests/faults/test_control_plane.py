"""Control-plane faults: tuner crashes, monitor outages, stats gaps.

Covers the degraded-mode chain end to end: a mid-search tuner crash
voids the open wave, drops its queued trial configurations, pins the
job to the last-known-good configuration, releases gated tasks
untracked, and -- at the scheduled restart -- reopens the search from
the incumbent.  Monitor outages and per-node stats gaps black out
sample ingestion without poisoning the rule windows.
"""

from repro.faults import ControlPlaneState, Fault, FaultPlan
from repro.faults.control import ControlPlaneState as DirectControlPlaneState
from repro.mapreduce.jobspec import JobSpec, TaskId, TaskType, WorkloadProfile
from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.statistics import TaskStats
from repro.sim.engine import Simulator
from repro.telemetry.events import (
    MonitorOutage,
    StatsGap,
    TunerCrash,
    TunerRecovered,
    TunerRollback,
)
from repro.testing import assert_no_output_leaks
from tests.faults.tuned_scenarios import (
    MB,
    crash_plan,
    make_tuner,
    run_monitor_outage,
    run_tuned,
    search_spec,
    small_cluster,
)
from tests.monitor.test_sample_pins import Recorder


class TestTunerCrashEndToEnd:
    def test_mid_search_crash_degrades_recovers_and_job_succeeds(self):
        """The acceptance scenario: a crash lands mid-search (an
        incumbent exists), the open wave is voided, the job completes
        with every task successful, the search reopens at restart, and
        the final cost stays within a pinned bound of the fault-free
        incumbent."""
        _, tuner0, spec0, res0, _ = run_tuned()
        assert res0.succeeded
        base_costs = sum(
            st.climber.best_cost()
            for st in tuner0._jobs[spec0.job_id].search_states.values()
        )

        sc, tuner, spec, result, events = run_tuned(plan=crash_plan())
        assert result.succeeded
        assert all(not s.failed for s in result.task_stats if not s.speculative)

        crashes = [e for e in events if isinstance(e, TunerCrash)]
        recoveries = [e for e in events if isinstance(e, TunerRecovered)]
        assert len(crashes) == 1 and len(recoveries) == 1
        assert crashes[0].time == 80.0
        assert crashes[0].down_until == 140.0
        assert crashes[0].voided_waves >= 1
        assert recoveries[0].time == 140.0
        assert recoveries[0].downtime == 60.0
        assert recoveries[0].reopened_waves == crashes[0].voided_waves
        # Crash voids go through the one void path: they are rollbacks too.
        rollbacks = [e for e in events if isinstance(e, TunerRollback)]
        assert [e.reason for e in rollbacks] == ["crash"] * crashes[0].voided_waves
        assert sc.telemetry.counters.get("tuner.rollbacks", 0) == len(rollbacks)
        assert sc.telemetry.counters.get("faults.applied", 0) == 1
        assert not tuner.tuner_down()

        states = tuner._jobs[spec.job_id].search_states
        assert any(
            "voided by tuner crash" in line
            for st in states.values()
            for line in st.rule_log
        )
        # Every search still converges to a recommendation.
        assert all(st.search_done for st in states.values())
        crash_costs = sum(st.climber.best_cost() for st in states.values())
        # Pinned bound: losing one wave to the crash may cost some
        # search progress, but never more than 35% of the final cost.
        assert crash_costs <= base_costs * 1.35
        assert_no_output_leaks(sc.hdfs)

    def test_crash_before_incumbent_keeps_bootstrap_wave(self):
        """A crash during the initial sampling wave has nothing to roll
        back to: the queued samples keep draining (quarantined), and the
        job still completes with a finished search."""
        sc, tuner, spec, result, events = run_tuned(
            plan=crash_plan(time=1.0, duration=30.0)
        )
        assert result.succeeded
        crashes = [e for e in events if isinstance(e, TunerCrash)]
        assert len(crashes) == 1
        assert crashes[0].voided_waves == 0
        states = tuner._jobs[spec.job_id].search_states
        assert all(st.search_done for st in states.values())
        assert_no_output_leaks(sc.hdfs)

    def test_crash_run_is_deterministic(self):
        """The same seeded crash scenario replays bit-identically."""
        _, _, spec_a, res_a, ev_a = run_tuned(plan=crash_plan())
        _, _, spec_b, res_b, ev_b = run_tuned(plan=crash_plan())
        assert res_a.duration == res_b.duration
        assert len(ev_a) == len(ev_b)

        def key(s):
            # Job ids come from a process-global counter, so compare on
            # the per-job task suffix only.
            return (s.task_id.task_type.value, str(s.task_id).rsplit("_", 1)[-1],
                    s.start_time, s.end_time)

        assert sorted(map(key, res_a.task_stats)) == sorted(map(key, res_b.task_stats))


class TestDegradedGate:
    def test_gate_releases_untracked_while_down(self):
        sim = Simulator()
        tuner = make_tuner()
        spec = JobSpec(
            name="t",
            workload=WorkloadProfile(
                name="t", map_output_ratio=1.0, map_output_record_size=100.0
            ),
            input_path="/in",
            num_reducers=2,
        )
        _, gate = tuner.attach_job(spec)
        state = tuner._jobs[spec.job_id].search_states[TaskType.MAP]
        voided = tuner.on_tuner_crash(0.0, 10.0)
        assert tuner.tuner_down()
        assert voided == 0  # no incumbent yet: nothing to void
        before = state.admitted
        ev = gate.admit(TaskType.MAP, sim)
        assert ev.value == -1  # untracked launch
        assert state.admitted == before + 1

    def test_crash_voids_queue_and_pins_last_known_good(self):
        tuner = make_tuner()
        spec = JobSpec(
            name="t",
            workload=WorkloadProfile(
                name="t", map_output_ratio=1.0, map_output_record_size=100.0
            ),
            input_path="/in",
            num_reducers=2,
        )
        tuner.attach_job(spec)
        job = tuner._jobs[spec.job_id]
        state = job.search_states[TaskType.MAP]
        # Manufacture an incumbent: score the whole first wave, then
        # open the second so a batch is in flight when the crash hits.
        for sample in state.climber.pending_samples():
            state.climber.observe(sample.sample_id, 1.0)
        tuner._open_batch(job, state)
        assert tuner.configurator.queued_count(spec.job_id, TaskType.MAP) > 0
        voided = tuner.on_tuner_crash(5.0, 15.0)
        assert voided >= 1
        assert tuner.configurator.queued_count(spec.job_id, TaskType.MAP) == 0
        assert state.slots == 0 and not state.climber.pending_samples()
        # Recovery reopens the search with a fresh wave.
        reopened = tuner.on_tuner_recover(15.0)
        assert reopened == voided
        assert not tuner.tuner_down()
        assert tuner.configurator.queued_count(spec.job_id, TaskType.MAP) > 0

    def test_capacity_change_while_down_spares_the_reopened_wave(self):
        """A capacity change that lands while the tuner is down predates
        every sample of the wave reopened at recovery, so that wave is
        scored, not voided.  A change while a wave is open still voids
        it, even when no sample overlaps the change."""
        tuner = make_tuner()
        spec = JobSpec(
            name="t",
            workload=WorkloadProfile(
                name="t", map_output_ratio=1.0, map_output_record_size=100.0
            ),
            input_path="/in",
            num_reducers=2,
        )
        tuner.attach_job(spec)
        job = tuner._jobs[spec.job_id]
        state = job.search_states[TaskType.MAP]
        state.admitted = 1000  # plenty of tasks still to come
        for sample in state.climber.pending_samples():
            state.climber.observe(sample.sample_id, 1.0)
        tuner._open_batch(job, state)
        assert tuner.on_tuner_crash(5.0, 15.0) >= 1
        tuner.note_capacity_change(8.0)
        assert tuner.on_tuner_recover(15.0) >= 1
        index = 0

        def feed_wave(start):
            nonlocal index
            for sample in list(state.climber.pending_samples()):
                tid = TaskId(spec.job_id, TaskType.MAP, index)
                state.bindings[str(tid)] = sample.sample_id
                tuner.on_task_stats(TaskStats(
                    task_id=tid, task_type=TaskType.MAP, node_id=0, attempt=0,
                    config={}, start_time=start, end_time=start + 10.0 + index,
                    cpu_seconds=5.0, allocated_cores=1.0,
                    working_set_bytes=100 * MB, container_memory_bytes=200 * MB,
                ))
                index += 1

        observed = state.climber.observations
        feed_wave(20.0)
        assert state.climber.observations > observed  # scored
        assert not any("rolled back" in line for line in state.rule_log)
        tuner.note_capacity_change(40.0)
        feed_wave(50.0)
        assert state.rule_log[-1].endswith(
            "rolled back (capacity-shifted: cluster membership changed mid-wave)"
        )

    def test_recover_noop_while_outage_extended(self):
        tuner = make_tuner()
        spec = JobSpec(
            name="t",
            workload=WorkloadProfile(
                name="t", map_output_ratio=1.0, map_output_record_size=100.0
            ),
            input_path="/in",
            num_reducers=2,
        )
        tuner.attach_job(spec)
        tuner.on_tuner_crash(0.0, 10.0)
        tuner.on_tuner_crash(5.0, 20.0)  # overlapping crash extends it
        assert tuner.on_tuner_recover(10.0) == 0  # stale callback
        assert tuner.tuner_down()
        tuner.on_tuner_recover(20.0)
        assert not tuner.tuner_down()


class TestControlPlaneState:
    def test_register_mid_outage_crashes_in_place(self):
        sim = Simulator()
        control = ControlPlaneState(sim)
        control.apply(
            Fault(time=0.0, kind="tuner_crash", node_id=0, duration=25.0)
        )
        tuner = make_tuner()
        control.register_tuner(tuner)
        assert tuner.tuner_down()
        assert control.down_until == 25.0

    def test_exported_from_faults_package(self):
        assert ControlPlaneState is DirectControlPlaneState


class TestMonitorOutage:
    def run_with_monitors(self, plan):
        sc = small_cluster(start_monitors=True)
        events = []
        sc.telemetry.subscribe(events.append, categories=("fault",))
        recorder = Recorder(sc.sim, sc.telemetry, sc.monitor)
        sc.inject_faults(plan=plan)
        spec = search_spec(sc, blocks=12, reducers=4)
        am = sc.submit(spec)
        result = sc.sim.run_until_complete(am.completion, max_events=40_000_000)
        recorder.assert_monitor_matches()
        return sc, result, events, recorder

    def test_outage_blacks_out_all_node_samples(self):
        plan = FaultPlan(
            (Fault(time=10.0, kind="monitor_outage", node_id=0, duration=30.0),)
        )
        sc, result, events, recorder = self.run_with_monitors(plan)
        assert result.succeeded
        assert [e for e in events if isinstance(e, MonitorOutage)]
        assert sc.monitor.gaps == [(None, 10.0, 40.0)]
        # The slaves keep sampling; the monitor drops what falls in the window.
        assert any(10.0 <= ev.time <= 40.0 for ev in recorder.samples)
        times = [s.time for s in recorder.ingested]
        assert not any(10.0 <= t <= 40.0 for t in times)
        # Samples outside the window still flow.
        assert any(t < 10.0 or t > 40.0 for t in times)

    def test_stats_gap_scoped_to_one_node(self):
        plan = FaultPlan(
            (Fault(time=10.0, kind="stats_gap", node_id=1, duration=30.0),)
        )
        sc, result, events, recorder = self.run_with_monitors(plan)
        assert result.succeeded
        gaps = [e for e in events if isinstance(e, StatsGap)]
        assert gaps and gaps[0].node_id == 1
        assert any(
            ev.stats.node_id == 1 and 10.0 <= ev.time <= 40.0 for ev in recorder.samples
        )
        samples = [(s.node_id, s.time) for s in recorder.ingested]
        assert not any(node == 1 and 10.0 <= t <= 40.0 for node, t in samples)
        assert any(node != 1 and 10.0 <= t <= 40.0 for node, t in samples)

    def test_timeline_bridges_gap_with_last_level(self):
        monitor = CentralMonitor()
        monitor.begin_gap(5.0, 15.0, node_id=3)

        def sample(t, cpu):
            return (3, t, cpu, 0.0, 0, 0.0, 0.0)

        monitor.ingest([sample(2.0, 0.5)])
        monitor.ingest([sample(10.0, 1.0)])  # dropped: inside gap
        monitor.ingest([sample(20.0, 0.5)])
        assert len(monitor.node_samples) == 2
        # The in-gap spike never lands, so the mean holds at 0.5.
        assert monitor.mean_cpu_utilization() == 0.5

    def test_outage_quarantines_tuned_waves(self):
        sc, tuner, spec, result, events = run_monitor_outage()
        assert result.succeeded
        assert tuner.quarantine_windows == [(30.0, 70.0, "outage")]
        assert [e for e in events if isinstance(e, MonitorOutage)]
        # A wave observed across the dark window was rolled back.
        assert any(
            "outage-shifted" in line
            for st in tuner._jobs[spec.job_id].search_states.values()
            for line in st.rule_log
        )
        assert_no_output_leaks(sc.hdfs)
