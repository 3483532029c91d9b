"""Killing an attempt at every pre-launch stage leaves nothing behind.

White-box: the job runs under a production gate -- the default
:class:`LaunchGate`, or the gate an aggressive :class:`OnlineTuner`
hands out -- and the simulator is stepped one event at a time until some
attempt's runner waits at the stage under test; that attempt is then
killed through the app master's own kill path.  After the job completes,
the gate, the request-token semaphores, the RM and the reduce ramp-up
budget must all be back at rest, and every task must have committed
exactly once.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core import parameters as P
from repro.core.configuration import Configuration
from repro.core.tuner import OnlineTuner, TuningStrategy
from repro.experiments.harness import SimCluster
from repro.mapreduce.jobspec import JobSpec, TaskType, WorkloadProfile
from repro.workloads.datasets import DatasetSpec
from repro.yarn.app_master import FaultToleranceSettings, LaunchGate
from repro.yarn.node_manager import KillReason

MB = 1024**2
MAPS, REDUCES = 32, 8
KILL = KillReason("preempted", "killed by the rollback test")


def recording(method, sink):
    """Wrap an event-returning *method* so every event lands in *sink*."""

    def wrapper(*args, **kwargs):
        ev = method(*args, **kwargs)
        sink.append(ev)
        return ev

    return wrapper


class Job:
    """A gated job; by default one where every wait past admission is reachable.

    With 32 maps and a request-token depth of 16, maps queue for tokens;
    4 GB reducers started at 5% slowstart outgrow the reduce ramp-up
    limit while maps remain.  The default :class:`LaunchGate` admits at
    once, so no admission ever queues; ``tuned=True`` runs the job under
    an aggressive tuner's gate instead, which queues admissions beyond
    the open sample batch.
    """

    def __init__(
        self, maps: int = MAPS, reduces: int = REDUCES, slaves: int = 4,
        reduce_mb: int = 4096, slowstart: float = 0.05, tuned: bool = False,
    ) -> None:
        self.maps, self.reduces = maps, reduces
        self.sc = SimCluster(
            seed=0,
            cluster_spec=ClusterSpec(
                num_slaves=slaves, racks=(slaves // 2, slaves - slaves // 2)
            ),
            start_monitors=False,
            fault_tolerance=FaultToleranceSettings(),
        )
        DatasetSpec("d", num_blocks=maps).load(self.sc.hdfs, "/in")
        profile = WorkloadProfile(
            name="t", map_output_ratio=1.0, map_output_record_size=100.0,
            map_output_noise=0.0, partition_skew=0.0,
            map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
        )
        spec = JobSpec(
            name="t", workload=profile, input_path="/in", num_reducers=reduces,
            base_config=Configuration({P.REDUCE_MEMORY_MB: reduce_mb}), slowstart=slowstart,
        )
        self.tuner, provider, self.gate = None, None, LaunchGate()
        if tuned:
            self.tuner = OnlineTuner(TuningStrategy.AGGRESSIVE, rng=np.random.default_rng(0))
            provider, self.gate = self.tuner.attach_job(spec)
        self.admits, self.tokens, self.grants = [], [], []
        self.gate.admit = recording(self.gate.admit, self.admits)
        self.am = self.sc.submit(spec, config_provider=provider, gate=self.gate)
        if tuned:
            self.am.stats_listeners.append(self.tuner.on_task_stats)
        for sem in self.am._request_tokens.values():
            sem.acquire = recording(sem.acquire, self.tokens)
        self.sc.rm.allocate = recording(self.sc.rm.allocate, self.grants)

    def waiting_attempts(self):
        for key in sorted(self.am._runs):
            run = self.am._runs[key]
            for attempt in run.running:
                waiting = attempt.runner._waiting_on if attempt.runner else None
                if waiting is not None and not attempt.settled:
                    yield run, attempt, waiting

    def kill_reduce_at_launch(self, nth: int = 1) -> list:
        """Kill the *nth* reduce container launched while maps remain.

        The kill is queued before the task's start kick, so it lands
        before the task process first runs.  Returns the list it records
        ``(time, run, attempt)`` in.
        """
        am, sim = self.am, self.sc.sim
        launched, killed = [], []

        def kill(container):
            ((run, attempt),) = [
                (run, a) for run in am._runs.values() for a in run.running
                if a.container is container
            ]
            killed.append((sim.now, run, attempt))
            am._kill_attempt(attempt, KILL)

        for nm in self.sc.node_managers.values():
            def launch(container, task, launch=nm.launch):
                if "_r_" in str(container.tag) and am._maps_remaining() > 0:
                    launched.append(container)
                    if len(launched) == nth:
                        sim.call_at(sim.now, lambda: kill(container))
                return launch(container, task)

            nm.launch = launch
        return killed

    def step_until(self, stage):
        for _ in range(500_000):
            for run, attempt, ev in self.waiting_attempts():
                if STAGES[stage](self, ev):
                    return run, attempt, ev
            assert self.sc.sim.step(), f"calendar drained before {stage}"
        raise AssertionError(f"no attempt ever reached {stage}")


def queued(ev):
    return not ev.scheduled and not ev.triggered


def undelivered(ev):
    return ev.scheduled and not ev.triggered


def _in(events, ev):
    return any(e is ev for e in events)


STAGES = {
    "admission-queued": lambda job, ev: _in(job.admits, ev) and queued(ev),
    "admission-scheduled": lambda job, ev: _in(job.admits, ev) and undelivered(ev),
    "token-queued": lambda job, ev: _in(job.tokens, ev) and queued(ev),
    "token-scheduled": lambda job, ev: _in(job.tokens, ev) and undelivered(ev),
    "reduce-headroom": lambda job, ev: _in(
        [parked for parked, _mem, _limit in job.am._headroom_waiters], ev
    ),
    "grant-queued": lambda job, ev: _in(job.grants, ev) and queued(ev),
    "grant-scheduled": lambda job, ev: _in(job.grants, ev) and undelivered(ev),
}


def assert_at_rest(job, result):
    am, rm = job.am, job.sc.rm
    assert result.succeeded
    for ttype in (TaskType.MAP, TaskType.REDUCE):
        if job.tuner is not None:
            state = job.gate.job.search_states[ttype]
            assert state.admitted == state.stats_seen
            assert state.admission_queue == []
        sem = am._request_tokens[ttype]
        assert sem.in_use == 0 and not sem._waiters
    assert rm._grants == {}  # no request left pending for the app
    assert rm.live_container_count == 0
    assert all(n.yarn_memory_used == 0 for n in job.sc.cluster.nodes)
    assert am._reduce_mem_outstanding == 0
    commits = Counter(str(s.task_id) for s in result.task_stats if not s.failed)
    assert len(commits) == job.maps + job.reduces
    assert set(commits.values()) == {1}


def stats_of(result, run, attempt):
    (stats,) = [
        s for s in result.task_stats
        if str(s.task_id) == str(run.task_id) and s.attempt == attempt.number
    ]
    return stats


#: Every stage under the default gate, which never queues an admission;
#: both admission stages under the tuner's gate too.
CASES = [
    pytest.param(stage, False, id=stage)
    for stage in sorted(STAGES) if stage != "admission-queued"
] + [
    pytest.param("admission-queued", True, id="admission-queued"),
    pytest.param("admission-scheduled", True, id="admission-scheduled-tuned"),
]


@pytest.mark.parametrize("stage, tuned", CASES)
def test_kill_at_stage_rolls_back_everything(stage, tuned):
    job = Job(tuned=tuned)
    run, attempt, ev = job.step_until(stage)
    withdrawn = queued(ev)
    job.am._kill_attempt(attempt, KILL)
    result = job.sc.sim.run_until_complete(job.am.completion)
    stats = stats_of(result, run, attempt)
    assert stats.failed and stats.failure_kind == "preempted"
    if withdrawn:
        assert not ev.triggered  # never granted to the dead attempt
    assert_at_rest(job, result)


def test_node_lost_between_grant_and_launch():
    job = Job()
    run, attempt, grant = job.step_until("grant-scheduled")
    node_id = grant.value.node.node_id
    rm = job.sc.rm
    rm.start_failure_detection(list(job.sc.node_managers.values()))
    rm._declare_node_lost(node_id)
    result = job.sc.sim.run_until_complete(job.am.completion)
    stats = stats_of(result, run, attempt)
    assert stats.failed and stats.failure_kind == "node_lost"
    assert stats.node_id == node_id
    assert "lost before launch" in stats.failure_reason
    assert_at_rest(job, result)


def test_container_killed_in_the_instant_it_launches():
    """The interrupt lands at the task's first wait, and the event that
    wait was on must not resume the finished task later."""
    job = Job()
    killed = job.kill_reduce_at_launch()
    result = job.sc.sim.run_until_complete(job.am.completion)
    ((_time, run, attempt),) = killed
    stats = stats_of(result, run, attempt)
    assert stats.failed and stats.failure_kind == "preempted"
    assert_at_rest(job, result)


def test_same_instant_backup_loses_the_photo_finish():
    """A backup that finishes in the very instant its primary commits
    is recorded as superseded, not as a second commit."""
    job = Job(maps=1, reduces=1)
    run = job.am._runs[str(job.am.spec.map_task_id(0))]
    job.am._spawn_attempt(run, speculative=True)
    result = job.sc.sim.run_until_complete(job.am.completion)
    winner, loser = [s for s in result.task_stats if s.task_type is TaskType.MAP]
    assert winner.end_time == loser.end_time
    assert not winner.failed
    assert loser.failed and loser.failure_kind == "speculation"
    assert loser.failure_reason == "superseded by a faster attempt"
    assert_at_rest(job, result)
