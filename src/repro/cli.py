"""Command-line interface: reproduce the paper's experiments directly.

Examples::

    python -m repro table3
    python -m repro expedited --case terasort --replicas 2
    python -m repro single-run --case wordcount-wikipedia
    python -m repro jobsize --sizes 2,20,60
    python -m repro multitenant
    python -m repro whatif --size-gb 20
    python -m repro digest --workers 4
    python -m repro faults --case terasort
    python -m repro elastic --levels none,low
    python -m repro trace --case wordcount-wikipedia --out trace-out
    python -m repro serve --tenants 3 --jobs 70
    python -m repro real --workload wordcount --tuning aggressive

Each subcommand prints the same rows/series the corresponding paper
figure plots.  ``--replicas`` controls seed averaging (the paper uses
4 runs).  ``--workers`` fans replica runs out over a process pool
(default: the ``REPRO_WORKERS`` environment knob, then the CPU count;
``1`` = the exact serial path) -- replicas are independently seeded,
so results are bit-identical either way.  ``digest`` prints a stable
hash over a small fixed experiment; the CI determinism gate runs it
serial and parallel and fails on any mismatch.  ``faults`` runs the
resilience report: job time and tuner gain at fault levels none/low/
high (node crashes, container kills, degraded nodes) against the
fault-free baseline, ending in its own determinism-gated digest.

Simulated subcommands run on the ``sim`` execution backend; ``real``
runs actual mapper/reducer worker processes over a local corpus on the
``local`` backend (``--backend`` selects explicitly; see
``docs/backends.md``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import List, Optional, Sequence

import numpy as np


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values)


def _seeds(args) -> List[int]:
    return [args.seed + i for i in range(args.replicas)]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_table3(args) -> int:
    from repro.experiments.harness import SimCluster
    from repro.experiments.reporting import format_table
    from repro.mapreduce.dataflow import JobDataflow
    from repro.workloads.suite import make_job_spec, table3_cases

    GB = 10**9
    sc = SimCluster(seed=args.seed, start_monitors=False)
    rows = []
    for case in table3_cases():
        spec = make_job_spec(case, sc.hdfs)
        df = JobDataflow(spec, sc.hdfs.get(spec.input_path), rng=np.random.default_rng(0))
        rows.append(
            [
                case.name,
                f"{df.total_input_bytes / GB:.1f}",
                f"{df.expected_shuffle_bytes / GB:.2f}",
                f"{df.expected_output_bytes / GB:.2f}",
                df.num_maps,
                df.num_reducers,
                case.job_type.value,
            ]
        )
    print(
        format_table(
            ["Benchmark", "Input GB", "Shuffle GB", "Output GB", "#Map", "#Reduce", "Type"],
            rows,
        )
    )
    return 0


def cmd_expedited(args) -> int:
    from repro.experiments.expedited import run_expedited_over_seeds
    from repro.workloads.suite import case_by_name

    case = case_by_name(args.case)
    results = run_expedited_over_seeds(
        case, _seeds(args), max_workers=args.workers, optimizer=args.optimizer
    )
    default = _mean([r.default_time for r in results])
    offline = _mean([r.offline_time for r in results])
    mronline = _mean([r.mronline_time for r in results])
    print(f"case: {case.name}  ({len(results)} replicas)")
    print(f"  default        : {default:8.1f} s")
    print(f"  offline guide  : {offline:8.1f} s")
    print(f"  MRONLINE       : {mronline:8.1f} s  ({100 * (default - mronline) / default:+.1f}%)")
    print(f"  tuning run     : {_mean([r.tuning_run_time for r in results]):8.1f} s (one run)")
    print(
        f"  map spills     : optimal {_mean([r.optimal_spills for r in results]):,.0f}"
        f" | default {_mean([r.default_spills for r in results]):,.0f}"
        f" | MRONLINE {_mean([r.mronline_spills for r in results]):,.0f}"
    )
    return 0


def cmd_single_run(args) -> int:
    from repro.experiments.single_run import run_single_run_over_seeds
    from repro.workloads.suite import case_by_name

    case = case_by_name(args.case)
    results = run_single_run_over_seeds(case, _seeds(args), max_workers=args.workers)
    default = _mean([r.default_time for r in results])
    mronline = _mean([r.mronline_time for r in results])
    print(f"case: {case.name}  ({len(results)} replicas)")
    print(f"  default  : {default:8.1f} s")
    print(f"  MRONLINE : {mronline:8.1f} s  ({100 * (default - mronline) / default:+.1f}%)")
    return 0


def cmd_jobsize(args) -> int:
    from repro.experiments.jobsize import run_sweep_over_seeds

    sizes = [float(s) for s in args.sizes.split(",")]
    per_seed = run_sweep_over_seeds(_seeds(args), sizes, max_workers=args.workers)
    print(f"{'size':>7s} {'default':>9s} {'MRONLINE':>9s} {'gain':>7s}")
    for i, size in enumerate(sizes):
        d = _mean([run[i].default_time for run in per_seed])
        t = _mean([run[i].mronline_time for run in per_seed])
        print(f"{size:5.0f}GB {d:8.1f}s {t:8.1f}s {100 * (d - t) / d:+6.1f}%")
    return 0


def cmd_multitenant(args) -> int:
    from repro.experiments.multitenant import ROLES, run_multitenant_over_seeds

    outcomes = run_multitenant_over_seeds(_seeds(args), max_workers=args.workers)
    ts_d = _mean([d.terasort_time for d, _t in outcomes])
    ts_t = _mean([t.terasort_time for _d, t in outcomes])
    bbp_d = _mean([d.bbp_time for d, _t in outcomes])
    bbp_t = _mean([t.bbp_time for _d, t in outcomes])
    print(f"Terasort: {ts_d:7.1f} -> {ts_t:7.1f} s  ({100 * (ts_d - ts_t) / ts_d:+.1f}%)")
    print(f"BBP     : {bbp_d:7.1f} -> {bbp_t:7.1f} s  ({100 * (bbp_d - bbp_t) / bbp_d:+.1f}%)")
    print("\nmemory utilization (default -> MRONLINE):")
    for role in ROLES:
        d = _mean([o.utilization.memory[role] for o, _t in outcomes])
        t = _mean([o.utilization.memory[role] for _d, o in outcomes])
        print(f"  {role:11s} {100 * d:5.1f}% -> {100 * t:5.1f}%")
    return 0


def cmd_whatif(args) -> int:
    from repro.core.whatif import CategoryOneAdvisor
    from repro.workloads.datasets import teragen_dataset
    from repro.workloads.terasort import terasort_profile

    dataset = teragen_dataset(args.size_gb)
    advisor = CategoryOneAdvisor(seed=args.seed)
    advice = advisor.advise(terasort_profile(), dataset)
    for outcome in advice.evaluations:
        marker = "  <== best" if outcome.candidate == advice.best else ""
        print(
            f"  reducers={outcome.candidate.num_reducers:4d} "
            f"slowstart={outcome.candidate.slowstart:4.2f} "
            f"-> {outcome.predicted_duration:8.1f} s{marker}"
        )
    return 0


#: The digest subcommand's fixed experiment: one shrunk instance of
#: every workload profile family, so the determinism gate exercises the
#: map-heavy, shuffle-heavy, and compute-heavy paths alike while
#: staying cheap enough to run twice in CI.
DIGEST_CASES = (
    ("terasort", 8, 4),
    ("wordcount-wikipedia", 6, 3),
    ("bigram-freebase", 6, 3),
    ("bbp", 4, 1),
)


def cmd_digest(args) -> int:
    from repro.experiments.parallel import RunRequest, combined_digest, run_requests

    requests = [
        RunRequest(
            case_name=name,
            seed=seed,
            tuning=_tuning_mode(args),
            num_blocks=blocks,
            num_reducers=reducers,
        )
        for name, blocks, reducers in DIGEST_CASES
        for seed in _seeds(args)
    ]
    outcomes = run_requests(requests, max_workers=args.workers)
    for outcome in outcomes:
        req = outcome.request
        print(
            f"  {req.case_name:24s} seed={req.seed}  "
            f"t={outcome.job_time:9.2f}s  {outcome.digest()[:16]}"
            f"{_failure_marker(outcome)}"
        )
    print(f"digest: {combined_digest(outcomes)}")
    return 0


def _failure_marker(outcome) -> str:
    """A loud suffix for unsuccessful runs (never average these away)."""
    if outcome.succeeded:
        return ""
    reasons = ", ".join(f"{kind} x{n}" for kind, n in outcome.failure_reasons)
    return f"  FAILED ({reasons or 'unknown'})"


def _load_plan_json(path: str, levels: Sequence[str]) -> str:
    """Read a ``--plan-json`` file into the single plan to replay.

    Accepts either a bare serialized plan or the level-keyed dump this
    command writes; for the latter, exactly one requested level must
    match.
    """
    import json
    from pathlib import Path

    text = Path(path).read_text()
    obj = json.loads(text)
    if isinstance(obj, dict) and "faults" in obj:
        return text
    matching = [lv for lv in levels if lv != "none" and lv in obj]
    if len(matching) != 1:
        raise SystemExit(
            f"--plan-json {path}: level-keyed dump needs exactly one requested"
            f" faulted level among {sorted(obj)}, got {matching or 'none'}"
        )
    return json.dumps(obj[matching[0]])


def cmd_faults(args) -> int:
    import json
    import os

    from repro.experiments.faults import run_fault_experiment

    levels = tuple(args.levels.split(","))
    plan_json = None
    replayed = False
    if args.plan_json and os.path.exists(args.plan_json):
        plan_json = _load_plan_json(args.plan_json, levels)
        replayed = True
    report = run_fault_experiment(
        case_name=args.case,
        seed=args.seed,
        levels=levels,
        tuning=_tuning_mode(args),
        num_blocks=args.blocks,
        num_reducers=args.reducers,
        max_workers=args.workers,
        kinds=tuple(args.kinds.split(",")) if args.kinds else None,
        plan_json=plan_json,
    )
    print(f"case: {report.case_name}  seed={report.seed}  tuning={report.tuning}")
    print(f"fault-free baseline: {report.baseline.job_time:.1f} s")
    for row in report.rows:
        print(f"\nfault level '{row.level}':")
        for line in row.tuned.injected_faults:
            print(f"    {line}")
        for label, outcome in (("default", row.default), (report.tuning, row.tuned)):
            status = "ok" if outcome.succeeded else "FAILED"
            reasons = ", ".join(f"{k} x{n:.0f}" for k, n in outcome.failure_reasons)
            print(
                f"  {label:12s}: {outcome.job_time:8.1f} s  [{status}]"
                f"  killed={outcome.killed_attempts:.0f}"
                + (f"  ({reasons})" if reasons else "")
            )
        breakdown = ", ".join(f"{k} x{n}" for k, n in row.failures_by_fault_kind)
        if breakdown:
            print(f"  failures by fault kind: {breakdown}")
        print(
            f"  slowdown vs fault-free: {100 * row.slowdown_vs(report.baseline):+.1f}%"
            f"   tuner gain: {100 * row.tuner_gain:+.1f}%"
        )
    if args.plan_json and not replayed and report.plans_json:
        dump = {level: json.loads(js) for level, js in report.plans_json}
        with open(args.plan_json, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nfault plan(s) written to {args.plan_json}")
    elif replayed:
        print(f"\nreplayed fault plan from {args.plan_json}")
    print(f"\nfault digest: {report.digest}")
    return 0


def cmd_elastic(args) -> int:
    from repro.experiments.elastic import run_elastic_experiment

    report = run_elastic_experiment(
        seed=args.seed,
        levels=tuple(args.levels.split(",")),
        tuning=args.tuning,
        max_workers=args.workers,
    )
    print(f"seed={report.seed}  tuning={report.tuning}")
    current = None
    for row in report.rows:
        if row.case_name != current:
            current = row.case_name
            print(
                f"\ncase: {row.case_name}"
                f"  (fault-free baseline {row.baseline.job_time:.1f} s)"
            )
        status = "ok" if row.churned.succeeded else "FAILED"
        reasons = ", ".join(
            f"{k} x{n:.0f}" for k, n in row.churned.failure_reasons
        )
        print(
            f"  churn '{row.level}': {row.churned.job_time:8.1f} s  [{status}]"
            f"  slowdown {100 * row.slowdown:+.1f}%"
            f"  killed={row.churned.killed_attempts:.0f}"
            + (f"  ({reasons})" if reasons else "")
        )
        for line in row.churned.injected_faults:
            print(f"      {line}")
    print(f"\nelastic digest: {report.digest}")
    return 0


def cmd_trace(args) -> int:
    from repro.experiments.trace import run_traced_case

    traced = run_traced_case(
        case_name=args.case,
        seed=args.seed,
        tuning=_tuning_mode(args),
        num_blocks=args.blocks,
        num_reducers=args.reducers,
        include_sim=args.include_sim,
    )
    paths = traced.save(args.out)
    status = "ok" if traced.succeeded else "FAILED"
    print(
        f"case: {traced.case_name}  seed={traced.seed}  tuning={traced.tuning}"
        f"  t={traced.job_time:.1f}s  [{status}]"
    )
    print(f"events: {len(traced.events.records)}  digest: {traced.digest()}")
    for name in sorted(paths):
        print(f"  wrote {paths[name]}")
    print()
    print(traced.summary.render())
    return 0


def cmd_real(args) -> int:
    from repro.experiments.real import render_real_report, run_real_case

    result = run_real_case(
        workload=args.workload,
        seed=args.seed,
        tuning=args.tuning,
        num_splits=args.splits,
        split_kb=args.split_kb,
        num_reducers=args.reducers,
        slots=args.slots,
    )
    print(render_real_report(result))
    return 0 if result.succeeded else 1


def cmd_serve(args) -> int:
    from repro.service import (
        ServiceConfig,
        TenantSpec,
        default_tenants,
        run_service,
        run_service_local,
    )

    from repro.recovery import ServiceKilled

    fault_plan = None
    if args.fault_plan:
        with open(args.fault_plan) as fh:
            fault_plan = fh.read()
    backend = args.backend or "sim"
    if backend == "sim":
        try:
            config = ServiceConfig(
                tenants=default_tenants(
                    args.tenants, rate=1.0 / args.interarrival
                ),
                jobs_per_tenant=args.jobs,
                seed=args.seed,
                capacity=args.capacity,
                warm_start=not args.cold,
                journal_path=args.journal,
                kill_after_jobs=args.kill_after_jobs,
                fault_plan=fault_plan,
            )
        except ValueError as err:
            print(str(err), file=sys.stderr)
            return 2
        try:
            report = run_service(config)
        except ServiceKilled as killed:
            print(f"service killed: {killed}", file=sys.stderr)
            return 3
    else:
        # Smoke scale on real worker processes: two tenants mixing the
        # local workloads, sequential dispatch, wall-clock latencies.
        mixes = (("wordcount",), ("grep", "inverted-index"))
        tenants = tuple(
            TenantSpec(
                name=f"tenant-{chr(ord('a') + i)}",
                weight=float(len(mixes) - i),
                rate=1.0 / 5.0,
                profiles=mixes[i % len(mixes)],
                slo_seconds=300.0,
            )
            for i in range(min(args.tenants, 2))
        )
        try:
            config = ServiceConfig(
                tenants=tenants,
                jobs_per_tenant=min(args.jobs, 2),
                seed=args.seed,
                capacity=1,
                warm_start=not args.cold,
                journal_path=args.journal,
                kill_after_jobs=args.kill_after_jobs,
            )
        except ValueError as err:
            print(str(err), file=sys.stderr)
            return 2
        try:
            report = run_service_local(config)
        except ServiceKilled as killed:
            print(f"service killed: {killed}", file=sys.stderr)
            return 3
    print(report.render())
    print(f"service digest: {report.digest()}")
    return 0


def cmd_list(args) -> int:
    from repro.backends.local import LOCAL_WORKLOADS
    from repro.workloads.suite import table3_cases

    print("benchmark cases (Table 3):")
    for case in table3_cases():
        print(f"  {case.name}")
    print("\nlocal-backend workloads (real subcommand):")
    for name in sorted(LOCAL_WORKLOADS):
        print(f"  {name}")
    print(
        "\nsubcommands: table3, expedited, single-run, jobsize, "
        "multitenant, whatif, digest, faults, elastic, trace, serve, real"
    )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_shared_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Define the flags every subcommand understands.

    They are declared twice -- on the root parser with real defaults,
    and on each subparser with ``SUPPRESS`` defaults -- so both
    ``repro --workers 4 faults`` and ``repro faults --workers 4`` work
    (the subparser only overrides when the flag is actually given).
    """
    from repro.backends import BACKEND_NAMES
    from repro.core.optimizers import DEFAULT_OPTIMIZER, OPTIMIZER_BACKENDS

    d = argparse.SUPPRESS
    parser.add_argument(
        "--seed", type=int, default=d if suppress else 1, help="base replica seed"
    )
    parser.add_argument(
        "--backend",
        default=d if suppress else None,
        choices=BACKEND_NAMES,
        help="execution backend (default: sim for simulated experiments, "
        "local for the 'real' subcommand)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=d if suppress else 1,
        help="seed replicas to average (paper: 4)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=d if suppress else None,
        help="worker processes for replica fan-out (default: REPRO_WORKERS, "
        "then CPU count; 1 = exact serial path)",
    )
    parser.add_argument(
        "--optimizer",
        default=d if suppress else DEFAULT_OPTIMIZER,
        choices=OPTIMIZER_BACKENDS,
        help="search backend for aggressive tuning sessions "
        "(default: the paper's gray-box hill climber)",
    )


def _add_faults_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """The ``faults`` flags, declared root-and-subparser like the shared
    set so ``repro --kinds ... faults`` and ``repro faults --kinds ...``
    both parse."""
    d = argparse.SUPPRESS
    parser.add_argument(
        "--kinds",
        default=d if suppress else None,
        help="comma-separated fault kinds to inject (e.g. link_flaky,rack_partition);"
        " default: the legacy node/container levels",
    )
    parser.add_argument(
        "--plan-json",
        default=d if suppress else None,
        metavar="PATH",
        help="fault-plan JSON file: if it exists, replay it verbatim;"
        " otherwise run normally and write the generated plan(s) there",
    )


def _tuning_mode(args) -> str:
    """Compose the request tuning string from ``--tuning``/``--optimizer``.

    A non-default backend rides as an ``aggressive:<backend>`` suffix;
    conservative/none tuning ignores the backend (nothing searches).
    """
    tuning = args.tuning
    if tuning == "aggressive" and args.optimizer != "hill_climb":
        return f"aggressive:{args.optimizer}"
    return tuning


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce MRONLINE (HPDC'14) experiments on the simulated cluster.",
    )
    _add_shared_options(parser, suppress=False)
    _add_faults_options(parser, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _add_shared_options(shared, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark cases and subcommands", parents=[shared])
    sub.add_parser(
        "table3", help="print Table 3 (benchmark characteristics)", parents=[shared]
    )

    p = sub.add_parser(
        "expedited", help="Figures 4-9 protocol for one case", parents=[shared]
    )
    p.add_argument("--case", default="terasort")

    p = sub.add_parser(
        "single-run", help="Figures 10-12 protocol for one case", parents=[shared]
    )
    p.add_argument("--case", default="terasort")

    p = sub.add_parser("jobsize", help="Figure 13 sweep", parents=[shared])
    p.add_argument("--sizes", default="2,6,10,20,60,100", help="comma-separated GB")

    sub.add_parser("multitenant", help="Figures 14-16 protocol", parents=[shared])

    p = sub.add_parser(
        "whatif", help="category-1 what-if advisor (Terasort)", parents=[shared]
    )
    p.add_argument("--size-gb", type=float, default=20.0)

    p = sub.add_parser(
        "digest",
        help="stable hash of a small fixed experiment (CI determinism gate)",
        parents=[shared],
    )
    p.add_argument(
        "--tuning",
        default="none",
        choices=("none", "conservative", "aggressive"),
        help="tuning mode for the digested runs; with --optimizer this is "
        "the per-backend determinism gate (default: untuned)",
    )

    p = sub.add_parser(
        "faults",
        help="resilience report: job time and tuner gain under injected faults",
        parents=[shared],
    )
    p.add_argument("--case", default="terasort")
    p.add_argument(
        "--levels",
        default="none,low,high",
        help="comma-separated fault levels (subset of none,low,high)",
    )
    p.add_argument(
        "--tuning",
        default="conservative",
        choices=("conservative", "aggressive"),
        help="tuning strategy for the tuned arm of each level",
    )
    p.add_argument("--blocks", type=int, default=None, help="shrink the dataset (blocks)")
    p.add_argument("--reducers", type=int, default=None, help="override reducer count")
    _add_faults_options(p, suppress=True)

    p = sub.add_parser(
        "elastic",
        help="elastic-churn report: decommission/join/spot-preempt sweep "
        "across the workload profiles",
        parents=[shared],
    )
    p.add_argument(
        "--levels",
        default="none,low,high",
        help="comma-separated churn levels (subset of none,low,high)",
    )
    p.add_argument(
        "--tuning",
        default="conservative",
        choices=("conservative", "aggressive"),
        help="tuning strategy co-executed with the churned runs",
    )

    p = sub.add_parser(
        "trace",
        help="run one case with telemetry exporters: JSONL + Chrome trace + summary",
        parents=[shared],
    )
    p.add_argument("--case", default="wordcount-wikipedia")
    p.add_argument(
        "--tuning",
        default="none",
        choices=("none", "conservative", "aggressive"),
        help="tuning strategy for the traced run (default: untuned)",
    )
    p.add_argument(
        "--blocks",
        type=int,
        default=6,
        help="shrink the dataset (blocks); default matches the digest shrink",
    )
    p.add_argument(
        "--reducers", type=int, default=3, help="override reducer count"
    )
    p.add_argument(
        "--out",
        default="trace-out",
        help="output directory for trace.jsonl / trace.chrome.json / summary",
    )
    p.add_argument(
        "--include-sim",
        action="store_true",
        help="also record the per-calendar-event 'sim' firehose (large)",
    )

    p = sub.add_parser(
        "serve",
        help="continuous multi-tenant tuning service: seeded arrival stream, "
        "fair-share dispatch, warm-started searches, steady-state report",
        parents=[shared],
    )
    p.add_argument(
        "--tenants", type=int, default=3, help="number of tenants in the stream"
    )
    p.add_argument(
        "--jobs", type=int, default=70, help="jobs per tenant (sim default: 70, "
        "a 210-job stream; local smoke caps at 2)"
    )
    p.add_argument(
        "--capacity", type=int, default=3, help="concurrent job slots"
    )
    p.add_argument(
        "--interarrival",
        type=float,
        default=400.0,
        help="mean inter-arrival time per tenant (simulated seconds)",
    )
    p.add_argument(
        "--cold",
        action="store_true",
        help="disable knowledge-base warm starts (the cold-start arm)",
    )
    p.add_argument(
        "--journal",
        default=None,
        help="write-ahead journal path; rerunning against an existing "
        "journal resumes a killed run (sim: validated replay, local: "
        "genuine skip-ahead)",
    )
    p.add_argument(
        "--kill-after-jobs",
        type=int,
        default=0,
        help="simulate a hard crash: exit (code 3) after N newly "
        "journaled completions (requires --journal)",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="JSON fault-plan file (repro.faults.plan_to_json) injected "
        "into the simulated cluster before the stream starts",
    )

    p = sub.add_parser(
        "real",
        help="run real mapper/reducer worker processes on the local backend "
        "and tune them (default vs tuned A/B)",
        parents=[shared],
    )
    p.add_argument(
        "--workload",
        default="wordcount",
        choices=("wordcount", "grep", "inverted-index"),
        help="local workload to execute",
    )
    p.add_argument(
        "--tuning",
        default="aggressive",
        choices=("conservative", "aggressive"),
        help="tuning strategy co-executed with the real run",
    )
    p.add_argument(
        "--splits", type=int, default=24, help="input splits (= map tasks)"
    )
    p.add_argument(
        "--split-kb", type=int, default=32, help="approximate split size in KB"
    )
    p.add_argument("--reducers", type=int, default=4, help="reduce task count")
    p.add_argument(
        "--slots",
        type=int,
        default=None,
        help="concurrent worker processes (default: small multiple of CPUs)",
    )
    return parser


_COMMANDS = {
    "list": cmd_list,
    "table3": cmd_table3,
    "expedited": cmd_expedited,
    "single-run": cmd_single_run,
    "jobsize": cmd_jobsize,
    "multitenant": cmd_multitenant,
    "whatif": cmd_whatif,
    "digest": cmd_digest,
    "faults": cmd_faults,
    "elastic": cmd_elastic,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "real": cmd_real,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.replicas < 1:
        print("--replicas must be >= 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.workers is None:
        from repro.experiments.parallel import resolve_workers

        try:
            resolve_workers()  # a bad REPRO_WORKERS fails here, not mid-run
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    # Backend routing: the simulated experiments only run on `sim`, the
    # real-execution A/B only on `local`; `--backend` makes the choice
    # explicit and rejects impossible pairings instead of ignoring them.
    if args.command == "real":
        if args.backend == "sim":
            print(
                "the 'real' subcommand runs actual worker processes; "
                "it requires --backend local",
                file=sys.stderr,
            )
            return 2
    elif args.command == "serve":
        pass  # the service loop runs on either backend
    elif args.backend == "local":
        print(
            f"subcommand {args.command!r} is simulator-only; "
            "only 'real' runs on --backend local",
            file=sys.stderr,
        )
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
