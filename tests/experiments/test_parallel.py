"""Tests for the process-pool experiment executor.

The load-bearing property is *digest equality*: fanning runs out over
worker processes must be bit-identical to the legacy serial loop for
every workload profile.  The pool mechanics (ordering, crash retry,
timeout surfacing, serial fallback) are covered with injected workers.
"""

import os
import pickle
import time

import pytest

from repro.experiments import parallel as par
from repro.experiments.parallel import (
    ParallelExperimentRunner,
    RunRequest,
    RunTimeoutError,
    WorkerCrashError,
    combined_digest,
    execute_request,
    map_seeds,
    resolve_case,
    resolve_workers,
    run_digest,
    run_requests,
    serialize_config,
)

#: One shrunk instance per workload profile family (all six workloads).
SMALL_CASES = [
    ("terasort", 6, 3),
    ("wordcount-wikipedia", 4, 2),
    ("bigram-wikipedia", 4, 2),
    ("inverted-index-freebase", 4, 2),
    ("text-search-freebase", 4, 2),
    ("bbp", 3, 1),
]


# ----------------------------------------------------------------------
# Injectable workers (top-level: they must pickle)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _sleep_forever(x):
    time.sleep(30)
    return x


def _crash_once(marker_and_value):
    """Dies hard on first sight of each marker path, succeeds after."""
    marker, value = marker_and_value
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed")
        os._exit(3)  # kill the worker process outright (not an exception)
    return value * 10


def _always_raise(x):
    raise RuntimeError(f"deterministic failure for {x}")


class TestRunRequest:
    def test_pickle_roundtrip(self):
        from repro.core.configuration import Configuration

        req = RunRequest.build(
            "terasort",
            seed=3,
            config=Configuration({"mapreduce.task.io.sort.mb": 320}),
            scheduler="fair",
            tuning="conservative",
            num_blocks=8,
            num_reducers=2,
        )
        clone = pickle.loads(pickle.dumps(req))
        assert clone == req
        assert clone.config() == req.config()
        assert clone.config()["mapreduce.task.io.sort.mb"] == 320

    def test_serialize_config_keeps_only_overrides(self):
        from repro.core.configuration import Configuration

        assert serialize_config(None) is None
        assert serialize_config(Configuration()) == ()
        pairs = serialize_config(Configuration({"mapreduce.task.io.sort.mb": 320}))
        assert pairs == (("mapreduce.task.io.sort.mb", 320),)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RunRequest("terasort", 1, tuning="psychic")
        with pytest.raises(ValueError):
            RunRequest("terasort", 1, num_blocks=0)
        with pytest.raises(ValueError):
            RunRequest("terasort", 1, num_reducers=0)
        # Fault counts must be non-negative integers: int(0.5) would
        # silently run the request fault-free.
        with pytest.raises(ValueError, match="crashes"):
            RunRequest.build("terasort", 1, faults={"crashes": 0.5, "horizon": 10.0})
        with pytest.raises(ValueError, match="container_kills"):
            RunRequest.build("terasort", 1, faults={"container_kills": -1, "horizon": 10.0})
        # Integral floats stay accepted.
        RunRequest.build("terasort", 1, faults={"crashes": 2.0, "horizon": 10.0})

    def test_tuning_string_carries_optimizer_backend(self):
        from repro.experiments.parallel import parse_tuning

        assert parse_tuning("none") == ("none", "hill_climb")
        assert parse_tuning("aggressive") == ("aggressive", "hill_climb")
        assert parse_tuning("aggressive:spsa") == ("aggressive", "spsa")
        assert parse_tuning("aggressive:lhs") == ("aggressive", "lhs")
        with pytest.raises(ValueError):
            parse_tuning("aggressive:bayesian")
        with pytest.raises(ValueError):
            parse_tuning("conservative:spsa")  # nothing searches
        with pytest.raises(ValueError):
            RunRequest("terasort", 1, tuning="aggressive:bayesian")
        # Valid backend suffixes construct (and pickle) cleanly.
        req = RunRequest("terasort", 1, tuning="aggressive:random")
        assert pickle.loads(pickle.dumps(req)) == req

    def test_resolve_case_names_and_overrides(self):
        case = resolve_case(RunRequest("terasort-2gb", 1))
        assert case.name == "terasort-2gb"
        small = resolve_case(RunRequest("terasort", 1, num_blocks=5, num_reducers=2))
        assert small.dataset.num_blocks == 5
        assert small.num_reducers == 2
        # The shrunk dataset must not alias its full-size sibling.
        full = resolve_case(RunRequest("terasort", 1))
        assert small.dataset.name != full.dataset.name
        with pytest.raises(KeyError):
            resolve_case(RunRequest("no-such-benchmark", 1))


class TestDeterminism:
    @pytest.mark.parametrize("name,blocks,reducers", SMALL_CASES)
    def test_serial_and_parallel_digests_match(self, name, blocks, reducers):
        """Every workload profile: pool execution is bit-identical."""
        requests = [
            RunRequest(name, seed=s, num_blocks=blocks, num_reducers=reducers)
            for s in (1, 2)
        ]
        serial = run_requests(requests, max_workers=1)
        pooled = run_requests(requests, max_workers=2)
        assert [run_digest(o) for o in serial] == [run_digest(o) for o in pooled]
        assert combined_digest(serial) == combined_digest(pooled)
        assert all(o.succeeded for o in serial)
        assert all(o.job_time > 0 for o in serial)

    def test_outcome_carries_summaries(self):
        outcome = execute_request(RunRequest("terasort", 1, num_blocks=6, num_reducers=3))
        assert outcome.map_phase_time > 0
        assert outcome.reduce_phase_time > 0
        assert outcome.spilled_records > 0
        assert outcome.shuffled_bytes > 0
        assert dict(outcome.counters)["MAP_OUTPUT_RECORDS"] > 0
        assert 0.0 <= outcome.node_memory_utilization <= 1.0

    def test_tuned_run_is_deterministic_across_processes(self):
        request = RunRequest(
            "terasort", 1, num_blocks=8, num_reducers=2, tuning="conservative"
        )
        serial = run_requests([request], max_workers=1)
        pooled = run_requests([request], max_workers=2)
        assert run_digest(serial[0]) == run_digest(pooled[0])

    @pytest.mark.parametrize("backend", ["hill_climb", "spsa", "random", "lhs"])
    def test_every_optimizer_backend_is_deterministic_across_processes(self, backend):
        """Satellite gate: each backend's tuned run has one digest,
        serial or pooled (the CI job re-checks this via the CLI)."""
        tuning = "aggressive" if backend == "hill_climb" else f"aggressive:{backend}"
        request = RunRequest(
            "terasort", 1, num_blocks=8, num_reducers=4, tuning=tuning
        )
        serial = run_requests([request], max_workers=1)
        pooled = run_requests([request], max_workers=2)
        assert run_digest(serial[0]) == run_digest(pooled[0])
        assert serial[0].succeeded
        assert serial[0].recommended is not None


class TestPoolMechanics:
    def test_results_ordered_by_item(self):
        runner = ParallelExperimentRunner(max_workers=2, worker=_square)
        assert runner.run([3, 1, 2, 5]) == [9, 1, 4, 25]

    def test_empty_batch(self):
        runner = ParallelExperimentRunner(max_workers=2, worker=_square)
        assert runner.run([]) == []

    def test_worker_crash_retried_once(self, tmp_path):
        items = [(str(tmp_path / f"marker-{i}"), i) for i in range(3)]
        runner = ParallelExperimentRunner(max_workers=2, worker=_crash_once)
        assert runner.run(items) == [0, 10, 20]

    def test_crash_beyond_retry_budget_raises(self, tmp_path):
        # retries=0: the very first hard crash must surface.
        items = [(str(tmp_path / "marker-once"), 1)]
        runner = ParallelExperimentRunner(max_workers=2, worker=_crash_once, retries=0)
        with pytest.raises(WorkerCrashError):
            runner.run(items)

    def test_raising_worker_surfaces_after_retry(self):
        runner = ParallelExperimentRunner(max_workers=2, worker=_always_raise)
        with pytest.raises(WorkerCrashError, match="deterministic failure"):
            runner.run([7])

    def test_timeout_surfaced(self):
        runner = ParallelExperimentRunner(
            max_workers=2, worker=_sleep_forever, timeout=0.3
        )
        with pytest.raises(RunTimeoutError):
            runner.run([1])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ParallelExperimentRunner(max_workers=0)
        with pytest.raises(ValueError):
            ParallelExperimentRunner(timeout=0)
        with pytest.raises(ValueError):
            ParallelExperimentRunner(retries=-1)


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(par.WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv(par.WORKERS_ENV, "5")
        assert resolve_workers() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(par.WORKERS_ENV, raising=False)
        assert resolve_workers() == (os.cpu_count() or 1)

    def test_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv(par.WORKERS_ENV, "-2")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_workers_1_never_builds_a_pool(self, monkeypatch):
        """REPRO_WORKERS=1 must take the exact in-process path."""
        monkeypatch.setenv(par.WORKERS_ENV, "1")

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool constructed on the serial path")

        monkeypatch.setattr(
            par.concurrent.futures, "ProcessPoolExecutor", explode
        )
        # Closures are fine on the serial path -- nothing is pickled.
        assert map_seeds(lambda s: s + 1, [1, 2, 3]) == [2, 3, 4]
