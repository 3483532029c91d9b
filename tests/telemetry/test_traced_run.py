"""End-to-end telemetry: traced runs are deterministic and passive."""

import json
import os

from repro.experiments.parallel import RunRequest, execute_request
from repro.experiments.trace import (
    TRACE_CHROME,
    TRACE_JSONL,
    TRACE_SUMMARY,
    run_traced_case,
)
from repro.telemetry import CATEGORIES
from tests.pins import pinned_ids

CASE = "wordcount-wikipedia"
BLOCKS = 4
REDUCERS = 2


def traced(seed=1, **kwargs):
    return run_traced_case(
        case_name=CASE, seed=seed, num_blocks=BLOCKS, num_reducers=REDUCERS, **kwargs
    )


class TestTracedRun:
    def test_same_seed_runs_are_byte_identical(self):
        # Ids come from process-global counters; two CLI runs each start
        # fresh (the CI gate's actual setup), so each run here does too.
        with pinned_ids():
            a = traced()
        with pinned_ids():
            b = traced()
        assert a.events.dumps() == b.events.dumps()
        assert a.digest() == b.digest()
        assert a.chrome.to_json() == b.chrome.to_json()

    def test_jsonl_is_schema_valid(self):
        run = traced()
        lines = run.events.dumps().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert isinstance(record["time"], (int, float))
            assert record["category"] in CATEGORIES
            assert isinstance(record["kind"], str) and record["kind"]

    def test_expected_event_mix(self):
        run = traced()
        kinds = {(r["category"], r["kind"]) for r in run.events.records}
        assert ("job", "job_submitted") in kinds
        assert ("job", "job_finished") in kinds
        assert ("task", "phase") in kinds
        assert ("task", "attempt") in kinds
        assert ("stats", "task_stats") in kinds
        assert ("yarn", "container_granted") in kinds
        assert ("yarn", "container_released") in kinds
        # The per-calendar-event firehose stays off by default.
        assert not any(cat == "sim" for cat, _ in kinds)

    def test_chrome_trace_parses_with_slices_per_node(self):
        run = traced()
        doc = json.loads(run.chrome.to_json())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {s["name"] for s in slices} >= {"map.read", "reduce.shuffle"}
        # Task spans land on real node tracks, never the cluster pid.
        assert all(s["pid"] >= 1 for s in slices if s["name"].startswith("map."))

    def test_observers_do_not_perturb_the_run(self):
        run = traced()
        request = RunRequest(
            case_name=CASE, seed=1, num_blocks=BLOCKS, num_reducers=REDUCERS
        )
        untraced = execute_request(request)
        assert run.job_time == untraced.job_time
        assert run.succeeded == untraced.succeeded

    def test_save_writes_all_artifacts(self, tmp_path):
        run = traced()
        paths = run.save(str(tmp_path / "out"))
        assert set(paths) == {TRACE_JSONL, TRACE_CHROME, TRACE_SUMMARY}
        for path in paths.values():
            assert os.path.exists(path) and os.path.getsize(path) > 0
        with open(paths[TRACE_JSONL]) as fh:
            assert fh.read() == run.events.dumps()

    def test_tuned_run_emits_tuner_events(self):
        run = traced(tuning="aggressive")
        kinds = {(r["category"], r["kind"]) for r in run.events.records}
        assert ("tuner", "wave_opened") in kinds
        assert run.summary.as_dict()["counters"].get("tuner.waves_opened", 0) >= 1
