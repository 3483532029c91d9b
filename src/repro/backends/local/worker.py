"""Real mapper/reducer task bodies for the local-process backend.

Everything here is a top-level, picklable function or frozen dataclass:
:func:`run_map_task` and :func:`run_reduce_task` execute inside
``ProcessPoolExecutor`` workers, so they receive declarative specs and
return slim reports -- no live backend state crosses the process
boundary.

The task bodies are a faithful miniature of Hadoop's task runtime:

* **Map**: map the split to ``(key, value)`` records in one pass and
  cut them into sort-buffer loads; a load spills once it passes
  ``sort_buffer_bytes x spill_threshold`` (Table 2: ``io.sort.mb`` x
  ``sort.spill.percent``).  A spill sorts its load (or counts its
  records and lets the combiner sort the counted keys) and writes one
  file holding a sorted segment per reducer partition;
  an in-memory ``(path, offset, length)`` index locates each segment,
  as Hadoop's ``sortAndSpill`` writes one spill file plus an index.
  Each partition's spill segments merge in passes of at most
  ``merge_factor`` (``io.sort.factor``) into one sorted file per
  reducer partition.
* **Reduce**: fetch one segment per map with ``fetch_parallelism``
  concurrent copiers (``shuffle.parallelcopies``); segments accumulate
  in memory until ``inmem_merge_records`` (``merge.inmem.threshold``)
  forces a sorted on-disk run; a final merge of the memory and disk
  runs feeds the reduce function key group by key group.

A merge reads its runs and sorts their concatenation: Python's sort
finds the sorted runs and merges them, which yields the order a k-way
merge would.

Partitioning uses ``zlib.crc32`` -- the builtin ``hash`` is randomized
per process and would scatter keys differently in every worker.  A map
task partitions each distinct key once.

Attempt isolation mirrors the HDFS commit protocol: every attempt
writes under ``<job dir>/_temporary/<attempt>/`` and commits via atomic
``os.replace`` into its final location, so a killed attempt can never
leave a partial file where committed output lives.
"""

from __future__ import annotations

import os
import re
import shutil
import time
import zlib
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Bytes-per-record bookkeeping overhead in the sort buffer (Hadoop's
#: kvmeta accounting entry is 16 bytes per record).
RECORD_OVERHEAD = 16

#: Resident footprint of the task runtime itself, before any buffer --
#: the KB-scaled stand-in for the JVM + user-code fixed working set.
FIXED_TASK_FOOTPRINT = 64 * 1024

#: Fraction of the container grant usable as heap (mirrors
#: :data:`repro.core.configuration.HEAP_FRACTION`).
HEAP_FRACTION = 0.8

_WORD_RE = re.compile(r"[a-z']+")

#: A ``str.translate`` table that lowercases ASCII text and turns every
#: character ``_WORD_RE`` then cannot match into a space.
_ASCII_WORDS = str.maketrans({
    c: chr(c).lower() if _WORD_RE.match(chr(c).lower()) else " " for c in range(128)
})

#: The text-search (grep) workload's fixed needle, in the spirit of the
#: paper's "text search" benchmark: count matching words.
GREP_NEEDLE = "ing"


# ----------------------------------------------------------------------
# Workload functions (resolved by name inside the worker process)
# ----------------------------------------------------------------------
#: A map function's output: the keys and the values, record by record.
MapOutput = Tuple[List[str], List[str]]

Record = Tuple[str, str]

#: A load's records counted: ``{(key, value): number of records}``.
Counted = Dict[Record, int]


def _words(text: str) -> List[str]:
    """The words of *text*: ``_WORD_RE.findall(text.lower())``.

    ASCII text skips the regex, and its lowercased copy: once one
    translation has lowercased it and made every character the pattern
    cannot match a space, its words are the fields ``split`` finds.
    """
    if text.isascii():
        return text.translate(_ASCII_WORDS).split()
    return _WORD_RE.findall(text.lower())


def _wordcount_map(doc_id: str, text: str) -> MapOutput:
    words = _words(text)
    return words, ["1"] * len(words)


def _grep_map(doc_id: str, text: str) -> MapOutput:
    words = [word for word in _words(text) if GREP_NEEDLE in word]
    return words, ["1"] * len(words)


def _inverted_index_map(doc_id: str, text: str) -> MapOutput:
    # Sorted, not set order: set order follows the per-process hash
    # seed, and the order moves the spill cut points.
    words = sorted(set(_words(text)))
    return words, [doc_id] * len(words)


def _sum_reduce(key: str, values: Iterable[str]) -> Iterator[Tuple[str, str]]:
    yield key, str(sum(int(v) for v in values))


def _postings_reduce(key: str, values: Iterable[str]) -> Iterator[Tuple[str, str]]:
    yield key, ",".join(sorted(set(values)))


def _sum_combine(counted: Counted) -> List[Record]:
    sums: Dict[str, int] = {}
    for (key, value), count in counted.items():
        sums[key] = sums.get(key, 0) + int(value) * count
    return [(key, str(total)) for key, total in sorted(sums.items())]


_MAP_FNS: Dict[str, Callable[[str, str], MapOutput]] = {
    "wordcount": _wordcount_map,
    "grep": _grep_map,
    "inverted-index": _inverted_index_map,
}

_REDUCE_FNS: Dict[str, Callable[[str, Iterable[str]], Iterator[Tuple[str, str]]]] = {
    "sum": _sum_reduce,
    "postings": _postings_reduce,
}

#: A combiner takes a load's counted records and returns its records
#: sorted.
_COMBINE_FNS: Dict[str, Callable[[Counted], List[Record]]] = {
    "sum": _sum_combine,
}


@dataclass(frozen=True)
class LocalWorkload:
    """One runnable workload: map/reduce/combine function names."""

    name: str
    map_fn: str
    reduce_fn: str
    combine_fn: Optional[str] = None


#: The three real workloads the local backend executes.
LOCAL_WORKLOADS: Dict[str, LocalWorkload] = {
    "wordcount": LocalWorkload("wordcount", "wordcount", "sum", "sum"),
    "grep": LocalWorkload("grep", "grep", "sum", "sum"),
    "inverted-index": LocalWorkload("inverted-index", "inverted-index", "postings"),
}


# ----------------------------------------------------------------------
# Knobs: Python-level stand-ins for the Table-2 parameters
# ----------------------------------------------------------------------
#: Table-2 "MB" quantities scale to KB here: a toy corpus of tens of
#: kilobytes per split exercises the same spill/merge/OOM mechanics a
#: 128-MB split does on a real cluster, at test-suite speed.
KB_SCALE = 1024


@dataclass(frozen=True)
class TaskKnobs:
    """The per-task execution knobs (decoded from a Configuration)."""

    #: ``io.sort.mb`` x :data:`KB_SCALE`: map sort-buffer capacity.
    sort_buffer_bytes: int
    #: ``map.sort.spill.percent``: buffer fill fraction that spills.
    spill_threshold: float
    #: ``io.sort.factor``: max runs merged per pass.
    merge_factor: int
    #: ``reduce.shuffle.parallelcopies``: concurrent segment fetchers.
    fetch_parallelism: int
    #: ``reduce.merge.inmem.threshold``: in-memory records before an
    #: on-disk run is forced (0 = everything goes to disk).
    inmem_merge_records: int
    #: ``{map,reduce}.memory.mb`` x :data:`KB_SCALE`: container grant.
    container_memory_bytes: int
    #: ``{map,reduce}.cpu.vcores``.
    allocated_cores: float

    @property
    def heap_bytes(self) -> int:
        return int(self.container_memory_bytes * HEAP_FRACTION)


@dataclass(frozen=True)
class MapTaskSpec:
    """Declarative input to :func:`run_map_task`."""

    job_id: str
    index: int
    attempt: int
    input_path: str
    workload: str
    num_partitions: int
    job_dir: str
    knobs: TaskKnobs
    #: The backend's ``time.monotonic()`` epoch; start/end times are
    #: reported relative to it (CLOCK_MONOTONIC is system-wide).
    epoch: float


@dataclass(frozen=True)
class ReduceTaskSpec:
    """Declarative input to :func:`run_reduce_task`."""

    job_id: str
    partition: int
    attempt: int
    num_maps: int
    workload: str
    job_dir: str
    knobs: TaskKnobs
    epoch: float


@dataclass(frozen=True)
class TaskReport:
    """What one attempt reports back across the process boundary."""

    index: int
    attempt: int
    start_time: float
    end_time: float
    cpu_seconds: float
    working_set_bytes: int
    output_records: int = 0
    output_bytes: int = 0
    combine_output_records: int = 0
    spilled_records: int = 0
    merge_passes: int = 0
    shuffled_bytes: int = 0
    reduce_input_records: int = 0
    failed: bool = False
    failure_kind: str = ""
    failure_reason: str = ""


def partition_of(key: str, num_partitions: int) -> int:
    """Deterministic hash partitioner (stable across processes)."""
    return zlib.crc32(key.encode("utf-8")) % num_partitions


def _attempt_dir(job_dir: str, kind: str, index: int, attempt: int) -> str:
    return os.path.join(
        job_dir, "_temporary", f"{kind}_{index:05d}_att{attempt}"
    )


def map_output_path(job_dir: str, map_index: int, partition: int) -> str:
    return os.path.join(
        job_dir, "map", f"m_{map_index:05d}", f"part-{partition:05d}"
    )


def reduce_output_path(job_dir: str, partition: int) -> str:
    return os.path.join(job_dir, "out", f"part-r-{partition:05d}")


#: One sorted run inside a file: ``(path, offset, length)`` in bytes.
Segment = Tuple[str, int, int]


def _write_run(path: str, runs: List[List[Record]]) -> List[Segment]:
    """Write sorted *runs* back to back into one file; return their segments."""
    segments: List[Segment] = []
    offset = 0
    with open(path, "wb") as fh:
        for records in runs:
            data = "".join([f"{key}\t{value}\n" for key, value in records]).encode("utf-8")
            fh.write(data)
            segments.append((path, offset, len(data)))
            offset += len(data)
    return segments


def _read_run(segment: Segment) -> List[Record]:
    path, offset, length = segment
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read(length)
    return [tuple(line.split("\t", 1)) for line in data.decode("utf-8").splitlines()]


def _combine(keys: Sequence[str], values: Sequence[str], combine_fn_name: str) -> List[Record]:
    """Count a load's records and return the combiner's sorted records.

    A load whose values are all one string, as in every wordcount and
    grep spill (each value is ``"1"``), counts its keys alone.
    """
    value = values[0]
    if values.count(value) == len(values):
        counted = {(key, value): count for key, count in Counter(keys).items()}
    else:
        counted = Counter(zip(keys, values))
    return _COMBINE_FNS[combine_fn_name](counted)


def _merge_runs(
    runs: List[Segment], prefix: str, merge_factor: int
) -> Tuple[List[Record], int, int]:
    """Merge sorted *runs* into one sorted record list.

    While more than ``merge_factor`` runs remain, an intermediate pass
    merges the first ``merge_factor`` of them into a new run file
    (``<prefix>_<pass>``) at the back.  Returns ``(records,
    merge_passes, re_spilled_records)``, counting intermediate passes
    only -- Hadoop counts records rewritten by them as spills.
    """
    passes = 0
    respilled = 0
    while True:
        batch, runs = runs[:merge_factor], runs[merge_factor:]
        records: List[Record] = []
        for run in batch:
            records += _read_run(run)
        records.sort()
        if not runs:
            return records, passes, respilled
        runs += _write_run(f"{prefix}_{passes:05d}", [records])
        passes += 1
        respilled += len(records)


def _commit(src: str, dest: str) -> None:
    """Atomically promote an attempt file to its final location."""
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    os.replace(src, dest)


# ----------------------------------------------------------------------
# Map task
# ----------------------------------------------------------------------
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

    peak_bytes = FIXED_TASK_FOOTPRINT
    combine_records = 0
    spilled = 0
    spill_seq = 0
    #: Per-partition index of the sorted segments the spills wrote.
    partition_runs: List[List[Segment]] = [[] for _ in range(spec.num_partitions)]
    #: The partition of every key spilled so far.
    partitions: Dict[str, int] = {}

    def spill(keys: List[str], values: List[str]) -> None:
        nonlocal spilled, spill_seq, combine_records
        if not keys:
            return
        if workload.combine_fn is None:
            run = sorted(zip(keys, values))
        else:
            run = _combine(keys, values, workload.combine_fn)
            combine_records += len(run)
        by_partition: List[List[Record]] = [[] for _ in range(spec.num_partitions)]
        for record in run:
            key = record[0]
            if key not in partitions:
                partitions[key] = partition_of(key, spec.num_partitions)
            by_partition[partitions[key]].append(record)
        path = os.path.join(attempt_dir, f"spill_{spill_seq:05d}")
        spill_seq += 1
        for p, segment in enumerate(_write_run(path, by_partition)):
            if by_partition[p]:
                partition_runs[p].append(segment)
        spilled += len(run)

    try:
        keys, values = map_fn(doc_id, text)
        # ends[i]: sort-buffer bytes of records 0..i, each record costing
        # len(key) + len(value) + RECORD_OVERHEAD.  A load spills at the
        # first record that brings it to the trigger.
        sizes = map(add, map(len, keys), map(len, values))
        ends = list(accumulate(map(add, sizes, repeat(RECORD_OVERHEAD))))
        cut = 0
        cut_bytes = 0
        while True:
            last = bisect_left(ends, cut_bytes + spill_trigger, cut)
            if last == len(ends):
                break
            peak_bytes = max(peak_bytes, FIXED_TASK_FOOTPRINT + ends[last] - cut_bytes)
            spill(keys[cut:last + 1], values[cut:last + 1])
            cut, cut_bytes = last + 1, ends[last]
        total_bytes = ends[-1] if ends else 0
        peak_bytes = max(peak_bytes, FIXED_TASK_FOOTPRINT + total_bytes - cut_bytes)
        spill(keys[cut:], values[cut:])

        # Merge each partition's spill segments into its sorted file.
        merge_passes = 0
        for p, runs in enumerate(partition_runs):
            records, passes, respilled = _merge_runs(
                runs, os.path.join(attempt_dir, f"merge_p{p:05d}"), knobs.merge_factor
            )
            merge_passes += passes
            spilled += respilled
            if len(runs) > 1:
                merge_passes += 1
                if workload.combine_fn is not None:
                    merged_keys, merged_values = zip(*records)
                    records = _combine(merged_keys, merged_values, workload.combine_fn)
                    combine_records += len(records)
            final = os.path.join(attempt_dir, f"part-{p:05d}")
            _write_run(final, [records])
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
        output_records=len(keys),
        # A record costs its key, a tab, its value and a newline.
        output_bytes=total_bytes - len(keys) * (RECORD_OVERHEAD - 2),
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
        disk_runs: List[Segment] = []
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
            disk_runs.extend(_write_run(path, [mem_records]))
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

        merged, merge_passes, respilled = _merge_runs(
            disk_runs, os.path.join(attempt_dir, "merge"), knobs.merge_factor
        )
        spilled += respilled
        merged += mem_records
        merged.sort()

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
