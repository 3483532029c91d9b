"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python benchmarks/e2e/run.py --seed 1             # every workload, 5 rounds
    python benchmarks/e2e/run.py --workload paper-tuned --seed 3 --seconds 10
    python benchmarks/e2e/run.py --trace              # one traced round per workload
    python benchmarks/e2e/run.py --out a.json && python benchmarks/e2e/run.py --out b.json
    python benchmarks/e2e/run.py --compare a.json b.json

Rounds interleave across workloads, and every (round, workload) pair
runs in a fresh process (``rounds.py``), so set-up time, peak memory and
lazy imports are per workload.  Host-time metrics are in reference
seconds (``rounds.ReferenceLoop``), the median over rounds, printed
with their quartiles and the round count, one ``workload metric value
unit`` line each; the raw seconds follow, marked ``raw``.  Simulated outcomes must
repeat exactly across rounds; they are printed, not timed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` metrics with ``--trace``).
A failed output check makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
WORKLOADS = ("paper-default", "paper-tuned", "service-stream", "shuffle-faults", "local-jobs")

#: Simulated outcomes (not host time): name -> unit.  They are checked
#: for exact repetition, never against a bound.
SIM_UNITS = {
    "sim_job_s": "sim_s",
    "tuned_best_cost": "eq1_cost",
    "p50_latency_sim_s": "sim_s",
    "p95_latency_sim_s": "sim_s",
    "slo_attainment": "fraction",
}

#: Raw host-time metrics, printed beside their reference-second forms
#: but not bounded: the host's speed drifts too much between runs.
RAW_UNITS = {"raw_setup_s": "s", "wall_s": "s", "tasks_per_s": "1/s"}

#: Wall-clock limit of one round process.
ROUND_TIMEOUT = 170.0


class RoundCrashed(RuntimeError):
    """A round process exited without a record."""


def spawn_round(workload: str, seed: int, scale: str, trace: bool) -> Dict[str, object]:
    """Run one round of *workload* in a fresh interpreter; return its record."""
    workdir = RESULTS / f"work-{os.getpid()}"
    env = dict(os.environ, REPRO_WORKERS="1", TMPDIR=str(RESULTS / "tmp"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    (RESULTS / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "rounds.py"),
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(int(trace)), "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundCrashed(f"{workload}: round exceeded {ROUND_TIMEOUT:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundCrashed(
            f"{workload}: round exited {proc.returncode}\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold the rounds of one workload: host-time samples and output checks.

    Every unit must pass its own check, and its output digest must equal
    the first round's: a simulated run that does not replay exactly is
    as wrong as one that fails.
    """
    host = {
        m: [r[m] for r in records]
        for m in ("setup_s", "raw_setup_s", "wall_s", "wall_ref_s", "peak_rss_mb")
    }
    host["tasks_per_s"] = [r["attempts"] / r["wall_s"] for r in records]
    host["tasks_per_ref_s"] = [r["attempts"] / r["wall_ref_s"] for r in records]
    first = {u["name"]: u["digest"] for u in records[0]["units"]}
    attempted, errors = 0, []
    for i, record in enumerate(records):
        for unit in record["units"]:
            attempted += 1
            if not unit["ok"]:
                errors.append(f"round {i} {unit['name']}: {unit['error']}")
            elif unit["digest"] != first[unit["name"]]:
                errors.append(f"round {i} {unit['name']}: outputs differ from round 0")
    return {
        "host": host,
        "sim": records[0]["sim"],
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
    }


def trace_report(workload: str, traced: Dict, untraced: Dict, spec: Dict) -> Dict[str, object]:
    """The per-layer metrics of one workload, plus the trace file's extras.

    Metrics named in ``BENCHMARK.json`` that are not derived here are
    counts of the traced round (0 where a workload lacks the layer).
    """
    from layers import LAYERS, PHASES

    layer_s: Dict[str, float] = {}
    for unit in traced["units"]:
        for layer, seconds in unit["layers_s"].items():
            layer_s[layer] = layer_s.get(layer, 0.0) + seconds
    total = sum(layer_s.values())
    phases = traced.get("phases_s", {})
    c = traced["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    derived = {f"{layer}.share": layer_s.get(layer, 0.0) / total for layer in LAYERS}
    derived.update(
        (f"local.{phase}.share", ratio(phases.get(phase, 0.0), sum(phases.values())))
        for phase in PHASES
    )
    derived.update({
        "yarn.useful_attempt_ratio": ratio(c.get("yarn.committed", 0), c.get("yarn.attempts", 0)),
        "service.queue_delay_mean_sim_s": ratio(
            c.get("service.queue_delay_sum_sim_s", 0), c.get("service.jobs", 0)
        ),
        "local.cpu_per_wall": ratio(c.get("local.task_cpu_s", 0), c.get("local.task_wall_s", 0)),
        "local.slot_busy_frac": ratio(c.get("local.task_wall_s", 0), c.get("local.slot_s", 0)),
        "trace_overhead": traced["wall_ref_s"] / untraced["wall_ref_s"],
    })
    events = untraced["counts"].get("sim.events", 0)
    report = {
        "workload": workload,
        "metrics": {
            m["name"]: float(derived.get(m["name"], c.get(m["name"], 0.0)))
            for m in spec["per_layer"]
        },
        "layers_self_s": dict(sorted(layer_s.items(), key=lambda kv: -kv[1])),
        "top_layers": sorted(layer_s, key=lambda k: -layer_s[k])[:3],
        "accounting": [
            {"unit": u["name"], "wall_s": u["wall_s"], "layers_sum_s": sum(u["layers_s"].values())}
            for u in traced["units"]
        ],
        "sim.us_per_event": untraced["wall_s"] / events * 1e6 if events else None,
        "local.phases_self_s": phases,
        "counts": c,
        "spans": traced["spans"],
    }
    for key, values in traced["samples"].items():
        if len(values) > 1:
            report[key.replace("_task_s", "_task_p50_s")] = statistics.median(values)
            report[key.replace("_task_s", "_task_p90_s")] = statistics.quantiles(values, n=10)[8]
    return report


def accounting_errors(report: Dict[str, object], tolerance: float = 0.05) -> List[str]:
    """Units whose layer self times do not add up to their traced wall time."""
    return [
        f"trace {a['unit']}: layers sum to {a['layers_sum_s']:.4f} s of {a['wall_s']:.4f} s"
        for a in report["accounting"]
        if abs(a["layers_sum_s"] / a["wall_s"] - 1.0) > tolerance
    ]


def run_set(args, spec: Dict) -> Dict[str, object]:
    """Run the rounds; return ``{workload: summary}`` (with traces if asked)."""
    records: Dict[str, List[Dict]] = {w: [] for w in args.workload}
    results: Dict[str, Dict] = {}
    if args.trace:
        for w in args.workload:
            untraced = spawn_round(w, args.seed, args.scale, trace=False)
            traced = spawn_round(w, args.seed, args.scale, trace=True)
            results[w] = summarize([untraced, traced])
            report = trace_report(w, traced, untraced, spec)
            errors = accounting_errors(report)
            results[w]["errors"] += errors
            results[w]["failed"] += len(errors)
            results[w]["trace"] = report
            RESULTS.mkdir(parents=True, exist_ok=True)
            (RESULTS / f"trace_{w}.json").write_text(json.dumps(report, indent=1))
        return results
    start = time.monotonic()
    done = 0
    while True:
        for w in args.workload:
            records[w].append(spawn_round(w, args.seed, args.scale, trace=False))
        done += 1
        if args.seconds is None and done >= args.rounds:
            break
        elapsed = time.monotonic() - start
        # Keep a run near its budget: no round expected to end past 1.5x.
        if args.seconds is not None and (
            elapsed >= args.seconds or elapsed * (done + 1) / done > 1.5 * args.seconds
        ):
            break
    return {w: summarize(recs) for w, recs in records.items()}


def print_set(results: Dict[str, Dict], spec: Dict, trace: bool) -> Dict[str, Dict]:
    """Print one line per metric; return the JSON ``metrics`` object."""
    metrics: Dict[str, Dict] = {}
    single = len(results) == 1
    for w, res in results.items():
        key = (lambda m: m) if single else (lambda m, w=w: f"{w}/{m}")
        if trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name, value in res["trace"]["metrics"].items():
                print(f"{w} {name} {value!r} {units[name]}")
                metrics[key(name)] = {"value": value, "unit": units[name]}
            print(f"{w} top_layers {' '.join(res['trace']['top_layers'])}")
            us = res["trace"]["sim.us_per_event"]
            if us is not None:
                print(f"{w} sim.us_per_event {us!r} us (untraced)")
        else:
            for m in spec["end_to_end"]:
                values = res["host"][m["name"]]
                q1, median, q3 = quartiles(values)
                print(f"{w} {m['name']} {median!r} {m['unit']} "
                      f"q1={q1!r} q3={q3!r} n={len(values)}")
                metrics[key(m["name"])] = {"value": median, "unit": m["unit"]}
            for name, unit in RAW_UNITS.items():
                print(f"{w} {name} {statistics.median(res['host'][name])!r} {unit} raw")
            for name, value in res["sim"].items():
                print(f"{w} {name} {value!r} {SIM_UNITS[name]} simulated")
        print(f"{w} fail_frac {res['failed'] / res['attempted']!r} fraction")
        for error in res["errors"]:
            print(f"{w} FAILED {error}", file=sys.stderr)
    return metrics


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, spec: Dict) -> int:
    """Print both sets' medians and IQRs per workload and metric.

    A host metric is ``worse`` when B's median is worse than A's by more
    than the metric's bound, ``unresolved`` when either set's spread
    (IQR over median) is wider than the bound, unless every B round
    reads better than every A round, and ``within bound`` otherwise.
    Simulated metrics must be identical.  Exit status 1 on any
    ``worse`` or differing simulated metric.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    bad = 0
    for w in [w for w in WORKLOADS if w in a and w in b]:
        for m in spec["end_to_end"]:
            va, vb = a[w]["host"][m["name"]], b[w]["host"][m["name"]]
            (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(va), quartiles(vb)
            spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (mb - ma) / ma
            all_better = all(sign * (y - x) < 0 for x in va for y in vb)
            if spread > m["bound"] and not all_better:
                label = "unresolved"
            elif worse_by > m["bound"]:
                label = "worse"
            else:
                label = "within bound"
            bad += label == "worse"
            print(f"{w} {m['name']} A={ma!r} (IQR {qa3 - qa1:.4g}) B={mb!r} "
                  f"(IQR {qb3 - qb1:.4g}) {m['unit']} change={worse_by:+.2%} "
                  f"bound={m['bound']:.0%} {label}")
        for name in sorted(set(a[w]["sim"]) | set(b[w]["sim"])):
            same = a[w]["sim"].get(name) == b[w]["sim"].get(name)
            bad += not same
            print(f"{w} {name} A={a[w]['sim'].get(name)!r} B={b[w]['sim'].get(name)!r} "
                  f"{'identical' if same else 'DIFFERENT'}")
        fa = a[w]["failed"] / a[w]["attempted"]
        fb = b[w]["failed"] / b[w]["attempted"]
        bad += fb > 0
        print(f"{w} fail_frac A={fa!r} B={fb!r}")
    return 1 if bad else 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--rounds", type=int, default=5, help="rounds per workload")
    length.add_argument("--seconds", type=float, default=None,
                        help="start rounds until this many seconds have passed (at least "
                             "one; none expected to end after 1.5x this)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="one untraced and one traced round; print per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the set's raw results here (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    args.workload = args.workload or list(WORKLOADS)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.compare:
        return compare(*args.compare, spec)
    sys.path.insert(0, str(HERE))
    try:
        results = run_set(args, spec)
    except RoundCrashed as exc:
        print(f"benchmark round crashed: {exc}", file=sys.stderr)
        return 2
    metrics = print_set(results, spec, bool(args.trace))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    out = Path(args.out) if args.out else RESULTS / "last_set.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"seed": args.seed, "scale": args.scale, "trace": bool(args.trace),
         "workloads": results}, indent=1))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
