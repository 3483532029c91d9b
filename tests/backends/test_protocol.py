"""Backend-protocol conformance: both runtimes honor one contract.

Every backend must accept a :class:`JobSpec`, return a completed
:class:`JobResult` with consistent counters and per-task statistics,
stream those statistics into the shared :class:`CentralMonitor`, and
fire completion callbacks.  The simulator side is additionally pinned
to a byte-exact digest: routing through the Backend protocol must not
perturb the deterministic kernel.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.backends import BACKEND_NAMES, Backend, JobHandle
from repro.backends.local import (
    LocalProcessBackend,
    generate_corpus,
    local_job_spec,
)
from repro.backends.sim import SimBackend
from repro.mapreduce.counters import Counter
from tests.monitor.test_sample_pins import Recorder
from tests.pins import check


def _sim_backend_and_spec():
    from repro.experiments.parallel import RunRequest, resolve_case
    from repro.workloads.suite import make_job_spec

    case = resolve_case(
        RunRequest(
            case_name="wordcount-wikipedia",
            seed=1,
            tuning="none",
            num_blocks=6,
            num_reducers=3,
        )
    )
    backend = SimBackend(seed=1)
    return backend, make_job_spec(case, backend.hdfs)


def _local_backend_and_spec(tmp_path):
    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_splits=6, split_kb=8, seed=1)
    backend = LocalProcessBackend(workspace=str(tmp_path / "ws"))
    return backend, local_job_spec("wordcount", corpus, num_reducers=3)


@pytest.fixture(params=BACKEND_NAMES)
def backend_and_spec(request, tmp_path):
    if request.param == "sim":
        backend, spec = _sim_backend_and_spec()
    else:
        backend, spec = _local_backend_and_spec(tmp_path)
    yield request.param, backend, spec
    backend.close()


class TestProtocolConformance:
    def test_satisfies_protocols(self, backend_and_spec):
        name, backend, spec = backend_and_spec
        assert isinstance(backend, Backend)
        assert backend.name == name
        handle = backend.submit(spec)
        assert isinstance(handle, JobHandle)
        assert handle.spec is spec
        result = backend.wait(handle)
        assert result.succeeded

    def test_job_result_consistency(self, backend_and_spec):
        """Same jobspec shape -> same JobResult contract on any backend."""
        _name, backend, spec = backend_and_spec
        result = backend.run_job(spec)
        assert result.succeeded
        assert result.job_id == spec.job_id
        assert result.end_time >= result.start_time
        # 6 maps + 3 reducers on both sides of the fixture.
        assert len(result.task_stats) == 9
        assert result.counters.get(Counter.MAP_OUTPUT_RECORDS) > 0
        assert result.counters.get(Counter.SPILLED_RECORDS) > 0
        assert result.counters.get(Counter.SHUFFLED_BYTES) > 0
        assert result.counters.get(Counter.REDUCE_INPUT_RECORDS) > 0
        assert result.counters.get(Counter.FAILED_TASK_ATTEMPTS) == 0
        for stats in result.task_stats:
            assert stats.end_time >= stats.start_time
            assert stats.task_id.job_id == spec.job_id
            assert stats.config  # the effective Table-2 configuration

    def test_stats_stream_reaches_monitor(self, backend_and_spec):
        _name, backend, spec = backend_and_spec
        recorder = Recorder(None, backend.telemetry, backend.monitor)
        result = backend.run_job(spec)
        recorded = {s.task_id for s in backend.monitor.task_stats}
        assert {s.task_id for s in result.task_stats} <= recorded
        # Every node sample reaches the monitor (no gap drops any), and
        # its means are the reference's over them.
        assert recorder.samples
        assert recorder.ingested == [ev.stats for ev in recorder.samples]
        recorder.assert_monitor_matches()

    def test_completion_callbacks(self, backend_and_spec):
        _name, backend, spec = backend_and_spec
        handle = backend.submit(spec)
        seen = []
        handle.add_completion_callback(seen.append)
        result = backend.wait(handle)
        assert seen == [result]
        # Late registration fires immediately.
        late = []
        handle.add_completion_callback(late.append)
        assert late == [result]

    def test_stats_listeners_fire(self, backend_and_spec):
        _name, backend, spec = backend_and_spec
        handle = backend.submit(spec)
        seen = []
        handle.stats_listeners.append(seen.append)
        result = backend.wait(handle)
        assert len(seen) == len(result.task_stats)


class TestSimBackendDigest:
    def test_pinned_digest(self):
        """The Backend-API path must not perturb the sim kernel: a sha256
        over (succeeded, duration, sorted counters) of the shrunk
        wordcount-wikipedia case, seed 1, untuned."""
        backend, spec = _sim_backend_and_spec()
        result = backend.run_job(spec)
        payload = repr(
            (
                result.succeeded,
                result.duration,
                tuple(sorted(result.counters.snapshot().items())),
            )
        ).encode("utf-8")
        check("backends/sim", hashlib.sha256(payload).hexdigest())
