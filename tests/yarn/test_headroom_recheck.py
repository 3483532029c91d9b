"""The one-event ramp-up recheck against the per-reducer wakeups it replaced.

``MRAppMaster`` parks a reducer that would overrun the reduce ramp-up
limit once, and an attempt settle rechecks every parked reducer in one
event.  ``EagerHeadroomAppMaster`` keeps the wakeup per parked reducer
that each settle scheduled before, verbatim.  Seeded small jobs run
under both, and the attempt rows, the job duration and the ordered log
of container requests must match exactly.

The jobs use zero map-output noise and skew, so many attempts settle at
one instant and a settle often finds several reducers parked.  Some
kill a reducer in the instant its container launches while maps
remain: the kill frees ramp-up memory, and the recheck that follows
releases some parked reducers but not all.
"""

import random
from collections import Counter

from repro.experiments import harness
from repro.yarn.app_master import REDUCE_RAMPUP_LIMIT, MRAppMaster
from tests.yarn.test_attempt_pins import attempt_rows
from tests.yarn.test_attempt_rollback import Job, assert_at_rest

JOBS = 120


class EagerHeadroomAppMaster(MRAppMaster):
    """Wakes every parked reducer in its own event, as before, verbatim."""

    def _await_reduce_headroom(self, memory_bytes):
        """Reduce ramp-up: cap reducers' memory share while maps remain."""
        limit = REDUCE_RAMPUP_LIMIT * self.cluster.total_yarn_memory
        while (
            self._maps_remaining() > 0
            and self._reduce_mem_outstanding + memory_bytes > limit
        ):
            ev = self.sim.event()
            self._headroom_waiters.append(ev)
            yield ev
        self._reduce_mem_outstanding += memory_bytes

    def _poke_headroom(self) -> None:
        waiters, self._headroom_waiters = self._headroom_waiters, []
        for ev in waiters:
            ev.succeed()


class ObservedAppMaster(MRAppMaster):
    """The app master under test, tallying what its rechecks release."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tally: Counter = Counter()

    def _recheck_headroom(self, batch):
        live = [ev for ev, _mem, _limit in batch if ev.callbacks]
        maps_left = self._maps_remaining() > 0
        super()._recheck_headroom(batch)
        released = sum(1 for ev in live if ev.triggered)
        self.tally["parked"] += len(live)
        if maps_left:
            self.tally["released_early"] += released
            self.tally["partial_early"] += 0 < released < len(live)


def job_shape(seed: int):
    """``Job`` arguments, and which reduce launch to kill (0 for none)."""
    rng = random.Random(seed)
    shape = {
        "maps": rng.randint(8, 96),
        "reduces": rng.randint(2, 24),
        "slaves": rng.randint(3, 6),
        "reduce_mb": rng.choice((2048, 3072, 4096, 5120)),
        "slowstart": rng.choice((0.0, 0.05, 0.05, 0.2, 0.5)),
    }
    return shape, rng.choice((0, 1, 2, 4))


def run_job(monkeypatch, app_master_cls, shape: dict, kill_nth: int):
    """Run one job under *app_master_cls*.

    Returns what the two app masters must share, and the app master.
    """
    monkeypatch.setattr(harness, "MRAppMaster", app_master_cls)
    job = Job(**shape)
    am, sim = job.am, job.sc.sim
    job_id = am.spec.job_id
    requests = []
    allocate = job.sc.rm.allocate

    def logged_allocate(request):
        res = request.resource
        requests.append(
            (sim.now, request.tag.replace(job_id, "job"), res.memory_bytes, res.vcores)
        )
        return allocate(request)

    job.sc.rm.allocate = logged_allocate
    killed = job.kill_reduce_at_launch(kill_nth) if kill_nth else []
    result = sim.run_until_complete(am.completion)
    assert_at_rest(job, result)
    return am, {
        "kills": [
            (t, str(run.task_id).replace(job_id, "job"), attempt.number)
            for t, run, attempt in killed
        ],
        "duration": repr(result.duration),
        "rows": attempt_rows(result),
        "requests": requests,
    }


def test_recheck_matches_per_reducer_wakeups_on_seeded_jobs(monkeypatch):
    tally: Counter = Counter()
    kills = 0
    for seed in range(JOBS):
        shape, kill_nth = job_shape(seed)
        _eager, expected = run_job(monkeypatch, EagerHeadroomAppMaster, shape, kill_nth)
        am, got = run_job(monkeypatch, ObservedAppMaster, shape, kill_nth)
        for key in ("kills", "duration", "rows", "requests"):
            assert got[key] == expected[key], (
                f"seed {seed} {shape}: the recheck changed the {key}"
            )
        tally.update(am.tally)
        kills += len(got["kills"])
    # Not vacuous: reducers parked, rechecks released some of them while
    # maps remained, some rechecks released only part of a batch, and
    # reducers were killed in the instant they launched.
    assert tally["parked"] > 20 * JOBS
    assert tally["released_early"] > JOBS // 4
    assert tally["partial_early"] > JOBS // 4
    assert kills > JOBS // 3
