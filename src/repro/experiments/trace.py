"""Task-timeline export: turn a job run into a Gantt-style trace.

Useful for eyeballing why a configuration wins: wave structure, the
map/shuffle overlap, stragglers, and retry gaps all become visible.
Exports CSV (one row per task attempt) and a terminal swimlane sketch.

:func:`run_traced_case` is the ``repro trace`` driver: one simulated
run with the telemetry exporters attached, yielding a JSONL event log,
a Chrome trace (load in Perfetto / chrome://tracing), and an aggregated
metrics summary -- all keyed to simulated time, byte-identical across
same-seed runs.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.mapreduce.jobspec import TaskType
from repro.yarn.app_master import JobResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import ChromeTraceExporter, JsonlExporter, MetricsSummary

CSV_FIELDS = [
    "task_id",
    "type",
    "node",
    "attempt",
    "wave",
    "start",
    "end",
    "duration",
    "cpu_seconds",
    "mem_utilization",
    "cpu_utilization",
    "spilled_records",
    "failed",
]


def to_csv(result: JobResult) -> str:
    """One CSV row per task attempt, ordered by start time."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for s in sorted(result.task_stats, key=lambda s: (s.start_time, str(s.task_id))):
        writer.writerow(
            {
                "task_id": str(s.task_id),
                "type": s.task_type.value,
                "node": s.node_id,
                "attempt": s.attempt,
                "wave": s.wave,
                "start": f"{s.start_time:.3f}",
                "end": f"{s.end_time:.3f}",
                "duration": f"{s.duration:.3f}",
                "cpu_seconds": f"{s.cpu_seconds:.3f}",
                "mem_utilization": f"{s.memory_utilization:.4f}",
                "cpu_utilization": f"{s.cpu_utilization:.4f}",
                "spilled_records": s.spilled_records,
                "failed": int(s.failed),
            }
        )
    return buf.getvalue()


def save_csv(result: JobResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(to_csv(result))


def swimlanes(
    result: JobResult,
    width: int = 100,
    max_lanes: Optional[int] = 24,
) -> str:
    """A terminal Gantt sketch: one lane per node, ``m``/``r`` glyphs.

    Each character cell covers ``duration/width`` seconds; a cell shows
    ``m`` (map), ``r`` (reduce), ``B`` (both ran in that cell on that
    node), or ``x`` (a failed attempt touched it).
    """
    if not result.task_stats:
        return "(no tasks)"
    t0 = min(s.start_time for s in result.task_stats)
    t1 = max(s.end_time for s in result.task_stats)
    span = max(1e-9, t1 - t0)
    nodes = sorted({s.node_id for s in result.task_stats})
    if max_lanes is not None:
        nodes = nodes[:max_lanes]
    lanes = {n: [" "] * width for n in nodes}
    for s in result.task_stats:
        if s.node_id not in lanes:
            continue
        lane = lanes[s.node_id]
        a = int((s.start_time - t0) / span * (width - 1))
        b = max(a, int((s.end_time - t0) / span * (width - 1)))
        glyph = "x" if s.failed else ("m" if s.task_type is TaskType.MAP else "r")
        for i in range(a, b + 1):
            if lane[i] == " " or lane[i] == glyph:
                lane[i] = glyph
            else:
                lane[i] = "x" if glyph == "x" else "B"
    lines: List[str] = [
        f"t = {t0:.0f}s {'-' * (width - 20)} {t1:.0f}s",
    ]
    for n in nodes:
        lines.append(f"node{n:02d} |{''.join(lanes[n])}|")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The ``repro trace`` driver: one run, all telemetry exporters attached.
# ----------------------------------------------------------------------
#: Stable artifact filenames inside the output directory -- the CI
#: trace-digest gate compares two same-seed ``trace.jsonl`` byte by byte.
TRACE_JSONL = "trace.jsonl"
TRACE_CHROME = "trace.chrome.json"
TRACE_SUMMARY = "trace.summary.txt"


@dataclass
class TracedRun:
    """One traced simulation run plus its attached exporters."""

    case_name: str
    seed: int
    tuning: str
    job_time: float
    succeeded: bool
    events: "JsonlExporter"
    chrome: "ChromeTraceExporter"
    summary: "MetricsSummary"

    def digest(self) -> str:
        """sha256 of the JSONL log (the determinism gate's unit)."""
        return self.events.digest()

    def save(self, out_dir: str) -> Dict[str, str]:
        """Write all artifacts under *out_dir*; returns name -> path."""
        os.makedirs(out_dir, exist_ok=True)
        paths = {
            TRACE_JSONL: os.path.join(out_dir, TRACE_JSONL),
            TRACE_CHROME: os.path.join(out_dir, TRACE_CHROME),
            TRACE_SUMMARY: os.path.join(out_dir, TRACE_SUMMARY),
        }
        self.events.save(paths[TRACE_JSONL])
        self.chrome.save(paths[TRACE_CHROME])
        with open(paths[TRACE_SUMMARY], "w") as fh:
            fh.write(self.summary.render() + "\n")
        return paths


def run_traced_case(
    case_name: str = "wordcount-wikipedia",
    seed: int = 1,
    tuning: str = "none",
    num_blocks: Optional[int] = None,
    num_reducers: Optional[int] = None,
    categories: Optional[Sequence[str]] = None,
    include_sim: bool = False,
) -> TracedRun:
    """Run one benchmark case with every telemetry exporter attached.

    Builds the run with :func:`~repro.experiments.parallel.build_request`,
    subscribes the JSONL, Chrome-trace, and metrics-summary exporters
    to its bus, then runs the (optionally tuned) job with
    :func:`~repro.experiments.parallel.run_request` -- the same two
    steps :func:`~repro.experiments.parallel.execute_request` takes.
    The subscriptions only add passive observers, so the simulated
    outcome is bit-identical to an untraced run of the same request.

    ``categories`` defaults to every category except the per-calendar-
    event ``sim`` firehose; pass ``include_sim=True`` to add it.  The
    summary subscribes to the same explicit categories (never the
    wildcard, which would implicitly turn the firehose on).
    """
    from repro.experiments.parallel import (
        RunRequest,
        build_request,
        resolve_case,
        run_request,
    )
    from repro.telemetry import (
        DEFAULT_EXPORT_CATEGORIES,
        ChromeTraceExporter,
        JsonlExporter,
        MetricsSummary,
    )

    request = RunRequest(
        case_name=case_name,
        seed=seed,
        tuning=tuning,
        num_blocks=num_blocks,
        num_reducers=num_reducers,
    )
    cats = tuple(categories) if categories is not None else DEFAULT_EXPORT_CATEGORIES
    if include_sim and "sim" not in cats:
        cats = cats + ("sim",)

    backend, _plan = build_request(request)
    events = JsonlExporter().attach(backend.telemetry, categories=cats)
    chrome = ChromeTraceExporter().attach(backend.telemetry, categories=cats)
    summary = MetricsSummary().attach(backend.telemetry, categories=cats)
    result, _recommended = run_request(backend, request)

    return TracedRun(
        case_name=resolve_case(request).name,
        seed=seed,
        tuning=request.tuning,
        job_time=result.duration,
        succeeded=result.succeeded,
        events=events,
        chrome=chrome,
        summary=summary,
    )
