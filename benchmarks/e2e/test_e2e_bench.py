"""Smoke self-test of the repository benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q

It runs every workload at ``--scale smoke`` (paper cases shrunk to 40
blocks, service 3 x 6 jobs, shuffle-faults 40 x 10, local 4 x 32 KB),
checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that a wrong local output is reported as a failure, and that the
benchmark's units replay what the public drivers compute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import rounds  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_benchmark_metric_is_emitted_with_its_unit(trace, section):
    start = time.monotonic()
    result = bench("--rounds", "1", "--trace", trace)
    assert time.monotonic() - start < 60
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {
        f"{w}/{m['name']}": m["unit"] for w in run.WORKLOADS for m in SPEC[section]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_single_workload_output_names_metrics_plainly():
    result = bench("--workload", "shuffle-faults", "--seed", "2", "--seconds", "1",
                   "--trace", "0")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_local_reference_is_reported_as_a_failure(tmp_path):
    wl = workloads.make_workload("local-jobs", 1, "smoke", str(tmp_path))
    try:
        good = workloads.local_reference("wordcount", wl.corpus)
        wl.references["wordcount"] = {**good, "the": str(int(good["the"]) + 1)}
        record = rounds.run_round(wl, False, str(ROOT / "src" / "repro"), time.monotonic())
    finally:
        wl.close()
    verdict = {u["name"]: u["ok"] for u in record["units"]}
    assert verdict == {
        f"{w}-{i}": w != "wordcount" for i in range(wl.repeats) for w in wl.jobs
    }
    record.update(setup_s=1.0, raw_setup_s=1.0, peak_rss_mb=1.0)
    summary = run.summarize([record])
    assert summary["failed"] == wl.repeats and summary["attempted"] == 2 * wl.repeats


def _units(name: str, seed: int = 1):
    wl = workloads.make_workload(name, seed, "smoke", "")
    return {unit_name: finish(run_unit()) for unit_name, run_unit, finish in wl.units()}


def test_sim_units_replay_the_public_drivers():
    from repro.experiments.expedited import run_aggressive_tuning, run_default
    from repro.experiments.parallel import RunRequest, execute_request

    case = workloads.paper_case("terasort", "smoke")
    assert _units("paper-default")["terasort@1"].sim["sim_job_s"] == run_default(case, 1).duration
    tuned, _recommended = run_aggressive_tuning(case, 1)
    assert _units("paper-tuned")["terasort@1"].sim["sim_job_s"] == tuned.duration
    request = RunRequest.build(
        "terasort", 1, tuning="conservative", num_blocks=40, num_reducers=10,
        faults=workloads.ShuffleFaults.faults,
    )
    faults_unit = _units("shuffle-faults")["terasort@1"]
    assert faults_unit.sim["sim_job_s"] == execute_request(request).job_time


def test_service_unit_is_the_serve_report():
    from repro.service import ServiceConfig, default_tenants, run_service

    report = run_service(ServiceConfig(tenants=default_tenants(3), jobs_per_tenant=6, seed=1))
    unit = _units("service-stream")["stream@1"]
    assert unit.ok and unit.digest == report.digest()
