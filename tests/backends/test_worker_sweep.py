"""The batched map task against the per-record task it replaced.

The reference below is the earlier ``run_map_task`` and
``run_reduce_task`` with their helpers, verbatim but for one line: a
generator map function feeds a per-record loop that spills one file per
partition, and merges run through ``heapq.merge``.  The one edit is the
inverted-index map, which emits its words sorted, not in set order (set
order follows the hash seed).  The reference tokenizes with its own
regex and combines each key's sorted value list.  Seeded cases run both
on the same corpus and knobs, in-process, and every committed file must
match byte for byte, with every ``TaskReport`` field that does not carry
host time.  The host-time fields must still bracket the call: a task
whose ``start_time`` or ``end_time`` stopped tracking the clock keeps
every output and counter, yet the tuner reads its duration from them.
"""

import heapq
import os
import random
import re
import shutil
import sys
import time
from collections import Counter as Tally
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.backends.local import generate_corpus, worker
from repro.backends.local.corpus import corpus_splits
from repro.backends.local.worker import (
    _REDUCE_FNS,
    FIXED_TASK_FOOTPRINT,
    GREP_NEEDLE,
    LOCAL_WORKLOADS,
    RECORD_OVERHEAD,
    MapTaskSpec,
    ReduceTaskSpec,
    TaskKnobs,
    TaskReport,
    _attempt_dir,
    _commit,
    map_output_path,
    partition_of,
    reduce_output_path,
)

CASES = 64

#: ``TaskReport`` fields that carry host time rather than work.
TIMING_FIELDS = ("start_time", "end_time", "cpu_seconds")


#: Mixed-case, punctuated and non-ASCII text, one more split in every
#: case: the generated splits are lowercase ASCII, so only this one runs
#: the tokenizer's non-ASCII path.
HANDWRITTEN_SPLIT = (
    "Tuning MapReduce ONLINE: the Tuner's hill-climbing samples (Running, "
    "TESTING, shuffling) don't wait for 42 jobs.\n"
    "Caf\xe9 na\xefve r\xe9sum\xe9 \u2014 \xfcber-Sorting, Stra\xdfe, "
    "\u0130stanbul, \u212aelvin\xa0merging; \u03a3\u03c9\u03ba\u03c1"
    "\u03ac\u03c4\u03b7\u03c2 spilling\tworking o'clock.\n"
) * 12


# ----------------------------------------------------------------------
# The reference: the per-record task bodies, verbatim but for one line
# ----------------------------------------------------------------------
_WORD_RE = re.compile(r"[a-z']+")


def _wordcount_map(doc_id: str, text: str) -> Iterator[Tuple[str, str]]:
    for word in _WORD_RE.findall(text.lower()):
        yield word, "1"


def _grep_map(doc_id: str, text: str) -> Iterator[Tuple[str, str]]:
    for word in _WORD_RE.findall(text.lower()):
        if GREP_NEEDLE in word:
            yield word, "1"


def _inverted_index_map(doc_id: str, text: str) -> Iterator[Tuple[str, str]]:
    for word in sorted(set(_WORD_RE.findall(text.lower()))):
        yield word, doc_id



def _sum_combine(key: str, values: List[str]) -> List[str]:
    return [str(sum(int(v) for v in values))]


_MAP_FNS: Dict[str, Callable[[str, str], Iterator[Tuple[str, str]]]] = {
    "wordcount": _wordcount_map,
    "grep": _grep_map,
    "inverted-index": _inverted_index_map,
}

_COMBINE_FNS: Dict[str, Callable[[str, List[str]], List[str]]] = {
    "sum": _sum_combine,
}


def _write_run(path: str, records: List[Tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in records:
            fh.write(f"{key}\t{value}\n")


def _read_run(path: str) -> Iterator[Tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _sep, value = line.rstrip("\n").partition("\t")
            yield key, value


def _combine(
    records: List[Tuple[str, str]], combine_fn_name: Optional[str]
) -> Tuple[List[Tuple[str, str]], int]:
    """Run the combiner over a *sorted* record run; returns (run, emitted)."""
    if combine_fn_name is None:
        return records, 0
    combine = _COMBINE_FNS[combine_fn_name]
    out: List[Tuple[str, str]] = []
    i = 0
    while i < len(records):
        j = i
        key = records[i][0]
        while j < len(records) and records[j][0] == key:
            j += 1
        for value in combine(key, [v for _k, v in records[i:j]]):
            out.append((key, value))
        i = j
    return out, len(out)


def _merge_runs(
    run_paths: List[str], scratch_dir: str, merge_factor: int
) -> Tuple[List[str], int, int]:
    """Reduce *run_paths* to at most ``merge_factor`` runs.

    Returns ``(paths, merge_passes, re_spilled_records)`` -- Hadoop
    counts records rewritten by intermediate merge passes as spills.
    """
    passes = 0
    respilled = 0
    merged_seq = 0
    paths = list(run_paths)
    while len(paths) > merge_factor:
        batch, paths = paths[:merge_factor], paths[merge_factor:]
        merged = list(heapq.merge(*(list(_read_run(p)) for p in batch)))
        out = os.path.join(scratch_dir, f"merge_{merged_seq:05d}")
        merged_seq += 1
        _write_run(out, merged)
        for p in batch:
            os.remove(p)
        paths.append(out)
        passes += 1
        respilled += len(merged)
    return paths, passes, respilled



def run_map_task(spec: MapTaskSpec) -> TaskReport:
    start = time.monotonic() - spec.epoch
    cpu0 = time.process_time()
    knobs = spec.knobs
    attempt_dir = _attempt_dir(spec.job_dir, "m", spec.index, spec.attempt)
    os.makedirs(attempt_dir, exist_ok=True)

    def report(**kw) -> TaskReport:
        return TaskReport(
            index=spec.index,
            attempt=spec.attempt,
            start_time=start,
            end_time=time.monotonic() - spec.epoch,
            cpu_seconds=time.process_time() - cpu0,
            **kw,
        )

    # Feasibility boundary: the sort buffer must fit inside the heap
    # with room for the task runtime itself -- the real-execution twin
    # of the simulator's OOM model.  An infeasible sampled config fails
    # here *before* doing work, exactly like a container OOM kill.
    if knobs.sort_buffer_bytes + FIXED_TASK_FOOTPRINT > knobs.heap_bytes:
        return report(
            working_set_bytes=knobs.sort_buffer_bytes + FIXED_TASK_FOOTPRINT,
            failed=True,
            failure_kind="oom",
            failure_reason=(
                f"sort buffer {knobs.sort_buffer_bytes}B exceeds heap "
                f"{knobs.heap_bytes}B"
            ),
        )

    workload = LOCAL_WORKLOADS[spec.workload]
    map_fn = _MAP_FNS[workload.map_fn]
    spill_trigger = max(
        RECORD_OVERHEAD + 1, int(knobs.sort_buffer_bytes * knobs.spill_threshold)
    )
    with open(spec.input_path, encoding="utf-8") as fh:
        text = fh.read()
    doc_id = os.path.splitext(os.path.basename(spec.input_path))[0]

    buffer: List[Tuple[str, str]] = []
    buffer_bytes = 0
    peak_bytes = FIXED_TASK_FOOTPRINT
    output_records = 0
    output_bytes = 0
    combine_records = 0
    spilled = 0
    spill_seq = 0
    #: Per-partition sorted run files produced by spills.
    partition_runs: List[List[str]] = [[] for _ in range(spec.num_partitions)]

    def spill() -> None:
        nonlocal buffer, buffer_bytes, spilled, spill_seq, combine_records
        if not buffer:
            return
        buffer.sort()
        run, emitted = _combine(buffer, workload.combine_fn)
        combine_records += emitted
        by_partition: List[List[Tuple[str, str]]] = [
            [] for _ in range(spec.num_partitions)
        ]
        for key, value in run:
            by_partition[partition_of(key, spec.num_partitions)].append((key, value))
        for p, records in enumerate(by_partition):
            if not records:
                continue
            path = os.path.join(attempt_dir, f"spill_{spill_seq:05d}_p{p:05d}")
            _write_run(path, records)
            partition_runs[p].append(path)
            spilled += len(records)
        spill_seq += 1
        buffer = []
        buffer_bytes = 0

    try:
        for key, value in map_fn(doc_id, text):
            buffer.append((key, value))
            buffer_bytes += len(key) + len(value) + RECORD_OVERHEAD
            output_records += 1
            output_bytes += len(key) + len(value) + 2
            if buffer_bytes >= spill_trigger:
                peak_bytes = max(peak_bytes, FIXED_TASK_FOOTPRINT + buffer_bytes)
                spill()
        peak_bytes = max(peak_bytes, FIXED_TASK_FOOTPRINT + buffer_bytes)
        spill()

        # Merge the spill runs into one sorted segment per partition.
        merge_passes = 0
        for p in range(spec.num_partitions):
            runs = partition_runs[p]
            final = os.path.join(attempt_dir, f"part-{p:05d}")
            if not runs:
                _write_run(final, [])
            elif len(runs) == 1:
                os.replace(runs[0], final)
            else:
                runs, passes, respilled = _merge_runs(
                    runs, attempt_dir, knobs.merge_factor
                )
                merge_passes += passes
                spilled += respilled
                merged = list(heapq.merge(*(list(_read_run(r)) for r in runs)))
                merged, emitted = _combine(merged, workload.combine_fn)
                combine_records += emitted
                _write_run(final, merged)
                merge_passes += 1
                for r in runs:
                    os.remove(r)
            _commit(final, map_output_path(spec.job_dir, spec.index, p))
    except Exception as exc:  # pragma: no cover - defensive
        return report(
            working_set_bytes=peak_bytes,
            failed=True,
            failure_kind="env",
            failure_reason=f"{type(exc).__name__}: {exc}",
        )
    shutil.rmtree(attempt_dir, ignore_errors=True)
    return report(
        working_set_bytes=peak_bytes,
        output_records=output_records,
        output_bytes=output_bytes,
        combine_output_records=combine_records,
        spilled_records=spilled,
        merge_passes=merge_passes,
    )


# ----------------------------------------------------------------------
# Reduce task
# ----------------------------------------------------------------------
def run_reduce_task(spec: ReduceTaskSpec) -> TaskReport:
    start = time.monotonic() - spec.epoch
    cpu0 = time.process_time()
    knobs = spec.knobs
    attempt_dir = _attempt_dir(spec.job_dir, "r", spec.partition, spec.attempt)
    os.makedirs(attempt_dir, exist_ok=True)

    def report(**kw) -> TaskReport:
        return TaskReport(
            index=spec.partition,
            attempt=spec.attempt,
            start_time=start,
            end_time=time.monotonic() - spec.epoch,
            cpu_seconds=time.process_time() - cpu0,
            **kw,
        )

    workload = LOCAL_WORKLOADS[spec.workload]
    reduce_fn = _REDUCE_FNS[workload.reduce_fn]
    segment_paths = [
        map_output_path(spec.job_dir, m, spec.partition)
        for m in range(spec.num_maps)
    ]

    def fetch(path: str) -> bytes:
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as fh:
            return fh.read()

    peak_bytes = FIXED_TASK_FOOTPRINT
    try:
        # The copy phase: parallelcopies concurrent fetchers, results
        # consumed in map order so the merge is deterministic.
        with ThreadPoolExecutor(max_workers=knobs.fetch_parallelism) as pool:
            segments = list(pool.map(fetch, segment_paths))
        shuffled_bytes = sum(len(seg) for seg in segments)

        # In-memory accumulation with threshold-forced disk runs.
        mem_records: List[Tuple[str, str]] = []
        mem_bytes = 0
        disk_runs: List[str] = []
        run_seq = 0
        spilled = 0
        inmem_limit = max(0, knobs.inmem_merge_records)

        def flush_to_disk() -> None:
            nonlocal mem_records, mem_bytes, run_seq, spilled
            if not mem_records:
                return
            mem_records.sort()
            path = os.path.join(attempt_dir, f"run_{run_seq:05d}")
            run_seq += 1
            _write_run(path, mem_records)
            disk_runs.append(path)
            spilled += len(mem_records)
            mem_records = []
            mem_bytes = 0

        reduce_input = 0
        for seg in segments:
            for line in seg.decode("utf-8").splitlines():
                key, _sep, value = line.partition("\t")
                mem_records.append((key, value))
                mem_bytes += len(key) + len(value) + RECORD_OVERHEAD
                reduce_input += 1
            peak_bytes = max(peak_bytes, FIXED_TASK_FOOTPRINT + mem_bytes)
            if inmem_limit and len(mem_records) > inmem_limit:
                flush_to_disk()
            elif not inmem_limit and mem_records:
                flush_to_disk()

        merge_passes = 0
        if disk_runs:
            disk_runs, passes, respilled = _merge_runs(
                disk_runs, attempt_dir, knobs.merge_factor
            )
            merge_passes += passes
            spilled += respilled
        mem_records.sort()
        streams = [iter(mem_records)] + [_read_run(p) for p in disk_runs]
        merged = heapq.merge(*streams)

        # Group by key and reduce.
        out_path = os.path.join(attempt_dir, f"part-r-{spec.partition:05d}")
        output_records = 0
        output_bytes = 0
        with open(out_path, "w", encoding="utf-8") as out:
            current: Optional[str] = None
            values: List[str] = []

            def emit_group() -> None:
                nonlocal output_records, output_bytes
                if current is None:
                    return
                for k, v in reduce_fn(current, values):
                    out.write(f"{k}\t{v}\n")
                    output_records += 1
                    output_bytes += len(k) + len(v) + 2
            for key, value in merged:
                if key != current:
                    emit_group()
                    current = key
                    values = []
                values.append(value)
            emit_group()
        _commit(out_path, reduce_output_path(spec.job_dir, spec.partition))
    except Exception as exc:  # pragma: no cover - defensive
        return report(
            working_set_bytes=peak_bytes,
            failed=True,
            failure_kind="env",
            failure_reason=f"{type(exc).__name__}: {exc}",
        )
    shutil.rmtree(attempt_dir, ignore_errors=True)
    return report(
        working_set_bytes=peak_bytes,
        output_records=output_records,
        output_bytes=output_bytes,
        spilled_records=spilled,
        merge_passes=merge_passes,
        shuffled_bytes=shuffled_bytes,
        reduce_input_records=reduce_input,
    )


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def draw_case(seed: int) -> dict:
    """One seeded job shape; the three workloads take turns."""
    rng = random.Random(seed)
    # 1 B to 400 KB, log-uniform, with both ends pinned.
    sort_buffer = (1, 400 * 1024)[seed] if seed < 2 else round((400 * 1024) ** rng.random())
    threshold = rng.choice((0.5, 0.8, 0.99))
    trigger = max(RECORD_OVERHEAD + 1, int(sort_buffer * threshold))
    # A record takes about four times its text in the buffer: capping a
    # map at ~300 spills keeps the reference's file count in hand.
    max_kb = max(1, min(32, 300 * trigger // (4 * 1024)))
    need = sort_buffer + FIXED_TASK_FOOTPRINT
    knobs = TaskKnobs(
        sort_buffer_bytes=sort_buffer,
        spill_threshold=threshold,
        merge_factor=round(2 * 50 ** rng.random()),
        fetch_parallelism=rng.randint(1, 4),
        inmem_merge_records=rng.choice((0, rng.randint(1, 1000))),
        # The heap is 80% of the grant, so a grant of ``need`` is an OOM.
        container_memory_bytes=need if rng.random() < 0.15 else 2 * need,
        allocated_cores=1.0,
    )
    return dict(
        workload=("wordcount", "grep", "inverted-index")[seed % 3],
        splits=rng.randint(1, 4),
        # Skewed small: a grep split of 1 KB leaves partitions empty.
        split_kb=round(max_kb ** rng.random() ** 2),
        partitions=rng.randint(1, 6),
        knobs=knobs,
    )


def timed(task: Callable, spec, epoch: float) -> TaskReport:
    """Run one task; its reported times must lie inside the call."""
    before = time.monotonic() - epoch
    report = task(spec)
    after = time.monotonic() - epoch
    assert before <= report.start_time <= report.end_time <= after, report
    assert report.cpu_seconds >= 0.0, report
    return report


def run_job(seed: int, case: dict, corpus: str, job_dir: str, map_task, reduce_task):
    """Every map, then every reduce; returns the reports and the files."""
    # An epoch far from the call keeps a wrong start time (a cursor, a
    # zero) from landing inside the bracket by chance.
    epoch = time.monotonic() - 1000.5
    splits = corpus_splits(corpus)
    reports = [
        timed(map_task, MapTaskSpec(
            f"sweep-{seed}", i, 0, path, case["workload"], case["partitions"],
            job_dir, case["knobs"], epoch,
        ), epoch)
        for i, path in enumerate(splits)
    ]
    reports += [
        timed(reduce_task, ReduceTaskSpec(
            f"sweep-{seed}", p, 0, len(splits), case["workload"], job_dir,
            case["knobs"], epoch,
        ), epoch)
        for p in range(case["partitions"])
    ]
    return reports, read_tree(job_dir)


def read_tree(job_dir: str) -> Dict[str, bytes]:
    """Every file under *job_dir*, by relative path."""
    files = {}
    for root, _dirs, names in os.walk(job_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, job_dir)] = fh.read()
    return files


def work_of(report: TaskReport) -> dict:
    return {k: v for k, v in asdict(report).items() if k not in TIMING_FIELDS}


def tally_combines(monkeypatch) -> Tally:
    """Count the worker's ``_combine`` calls by caller and by values.

    A spill of wordcount or grep holds ``"1"`` alone, so only a final
    merge of counted segments combines records with different values.
    """
    calls: Tally = Tally()
    combine = worker._combine

    def counting(keys, values, combine_fn_name):
        caller = sys._getframe(1).f_code.co_name
        calls[caller, "one value" if len(set(values)) == 1 else "mixed values"] += 1
        return combine(keys, values, combine_fn_name)

    monkeypatch.setattr(worker, "_combine", counting)
    return calls


def test_batched_tasks_match_per_record_reference(tmp_path, monkeypatch):
    tally: Tally = Tally()
    combines = tally_combines(monkeypatch)
    for seed in range(CASES):
        case = draw_case(seed)
        corpus = str(tmp_path / f"corpus-{seed}")
        generate_corpus(corpus, num_splits=case["splits"], split_kb=case["split_kb"], seed=seed)
        with open(os.path.join(corpus, "split_handwritten.txt"), "w", encoding="utf-8") as fh:
            fh.write(HANDWRITTEN_SPLIT)
        combines.clear()
        ref_reports, ref_files = run_job(
            seed, case, corpus, str(tmp_path / f"ref-{seed}"), run_map_task, run_reduce_task
        )
        reports, files = run_job(
            seed, case, corpus, str(tmp_path / f"new-{seed}"),
            worker.run_map_task, worker.run_reduce_task,
        )
        assert files.keys() == ref_files.keys(), f"case {seed}: {case}"
        for name, data in files.items():
            assert data == ref_files[name], f"case {seed}: {name} differs ({case})"
        assert [work_of(r) for r in reports] == [work_of(r) for r in ref_reports], (
            f"case {seed}: {case}"
        )
        assert not any(r.failure_kind == "env" for r in reports), reports

        maps = reports[: case["splits"] + 1]
        if any(r.failure_kind == "oom" for r in maps):
            tally["oom"] += 1
        # A map counts one final pass per partition with several runs,
        # a reduce none: anything beyond that is an intermediate pass.
        if any(r.merge_passes > case["partitions"] for r in maps) or any(
            r.merge_passes for r in reports[len(maps):]
        ):
            tally["intermediate merge"] += 1
        # No pass at all: each non-empty partition got one spill segment.
        if any(r.output_records and not r.failed and r.merge_passes == 0 for r in maps):
            tally["single-run partition"] += 1
        if any(name.startswith("map") and not data for name, data in files.items()):
            tally["empty partition"] += 1
        if combines["spill", "one value"]:
            tally["one-value spill"] += 1
        if combines["run_map_task", "mixed values"]:
            tally["mixed-value merge"] += 1
        shutil.rmtree(tmp_path / f"ref-{seed}")
        shutil.rmtree(tmp_path / f"new-{seed}")
    # Not vacuous: every mechanism the batched task rewrote was reached.
    floors = {
        "intermediate merge": 10,
        "single-run partition": 8,
        "oom": 6,
        "empty partition": 3,
        "one-value spill": 20,
        "mixed-value merge": 10,
    }
    assert all(tally[k] >= floor for k, floor in floors.items()), tally
