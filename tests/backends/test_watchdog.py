"""The hung-worker watchdog of the local-process backend.

A worker that neither finishes nor dies would wedge a phase forever --
``futures_wait`` has no deadline of its own.  These tests plant a real
hang (a worker that sleeps far past its liveness deadline), watch the
watchdog SIGKILL it, and check the bookkeeping that follows: the hung
attempt retries as failure kind ``"hang"``, the job still succeeds,
``worker_hang`` telemetry fires, and no attempt temporaries leak.

The hang functions must live at module level: the process pool pickles
worker callables by reference.
"""

import time

import pytest

from repro.backends.local import (
    LocalProcessBackend,
    WatchdogSettings,
    generate_corpus,
    local_job_spec,
)
from repro.backends.local import backend as backend_mod
from repro.backends.local.worker import run_map_task
from repro.mapreduce.jobspec import TaskType
from repro.testing import assert_no_output_leaks
from repro.util.backoff import BackoffPolicy

#: Far past the test deadline, far under the suite timeout: the
#: watchdog must kill this sleep, never wait it out.
HANG_SECONDS = 600.0


def hang_first_attempt(spec):
    """Map worker whose task 0 hangs on its first attempt only."""
    if spec.index == 0 and spec.attempt == 0:
        time.sleep(HANG_SECONDS)
    return run_map_task(spec)


def hang_every_attempt(spec):
    """Map worker whose task 0 hangs on every attempt (a dead task)."""
    if spec.index == 0:
        time.sleep(HANG_SECONDS)
    return run_map_task(spec)


FAST_WATCHDOG = WatchdogSettings(
    map_deadline=1.0,
    reduce_deadline=5.0,
    poll_interval=0.1,
    backoff=BackoffPolicy(base=0.01, cap=0.05),
)


@pytest.fixture()
def corpus(tmp_path):
    corpus_dir = str(tmp_path / "corpus")
    generate_corpus(corpus_dir, num_splits=3, split_kb=4, seed=1)
    return corpus_dir


def run_with_hang(tmp_path, corpus, monkeypatch, hang_fn):
    monkeypatch.setattr(backend_mod, "run_map_task", hang_fn)
    events = []
    with LocalProcessBackend(
        workspace=str(tmp_path / "jobs"), seed=1, watchdog=FAST_WATCHDOG
    ) as backend:
        backend.telemetry.subscribe(lambda ev: events.append(ev), ("fault",))
        result = backend.run_job(local_job_spec("wordcount", corpus, 2))
        leaks = backend.leaked_temporaries()
    return result, events, leaks


class TestWatchdog:
    def test_hung_worker_is_killed_and_retried(
        self, tmp_path, corpus, monkeypatch
    ):
        result, events, leaks = run_with_hang(
            tmp_path, corpus, monkeypatch, hang_first_attempt
        )
        # The retry (attempt 1) runs clean, so the job succeeds.
        assert result.succeeded
        assert result.failure_reasons.get("hang") == 1
        hang_stats = [s for s in result.task_stats if s.failure_kind == "hang"]
        assert len(hang_stats) == 1
        assert hang_stats[0].attempt == 0
        assert "SIGKILLed by watchdog" in hang_stats[0].failure_reason
        hangs = [e for e in events if e.kind == "worker_hang"]
        assert len(hangs) == 1
        assert hangs[0].deadline == FAST_WATCHDOG.map_deadline
        assert not leaks

    def test_dead_task_exhausts_attempts_and_fails_job(
        self, tmp_path, corpus, monkeypatch
    ):
        result, events, _leaks = run_with_hang(
            tmp_path, corpus, monkeypatch, hang_every_attempt
        )
        # Bounded retry: MAX_ATTEMPTS hangs, then the phase gives up.
        assert not result.succeeded
        assert result.failure_reasons.get("hang") == backend_mod.MAX_ATTEMPTS
        assert (
            len([e for e in events if e.kind == "worker_hang"])
            == backend_mod.MAX_ATTEMPTS
        )

    def test_no_temporary_leaks_after_kill(self, tmp_path, corpus, monkeypatch):
        _result, _events, leaks = run_with_hang(
            tmp_path, corpus, monkeypatch, hang_first_attempt
        )
        assert not leaks
        assert_no_output_leaks(str(tmp_path / "jobs"))


class TestWatchdogSettings:
    def test_defaults_are_sane(self):
        wd = WatchdogSettings()
        assert wd.map_deadline < wd.reduce_deadline
        assert wd.deadline_for(TaskType.MAP) == wd.map_deadline
        assert wd.deadline_for(TaskType.REDUCE) == wd.reduce_deadline

    def test_validation(self):
        with pytest.raises(ValueError):
            WatchdogSettings(map_deadline=0.0)
        with pytest.raises(ValueError):
            WatchdogSettings(poll_interval=0.0)

    def test_enabled_watchdog_does_not_perturb_healthy_runs(
        self, tmp_path, corpus
    ):
        with LocalProcessBackend(
            workspace=str(tmp_path / "jobs"), seed=1
        ) as backend:
            assert backend.watchdog is not None  # on by default
            result = backend.run_job(local_job_spec("wordcount", corpus, 2))
        assert result.succeeded
        assert not result.failure_reasons
