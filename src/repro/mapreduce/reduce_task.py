"""The reduce task process: shuffle, merge, reduce, output commit.

The shuffle loop consumes map outputs as they complete (overlapping
with the map phase once slowstart admits the reducer), fetching every
newly available segment batch through an aggregated network flow whose
rate is bounded by ``shuffle.parallelcopies`` copier streams.  The
merge behaviour follows :func:`plan_reduce_merge`.

``shuffle.merge.percent`` and ``merge.inmem.threshold`` are read from
the live configuration at each use, so category-3 (hot-swappable)
updates land mid-task.  ``parallelcopies`` is category 2: an attempt
reads it once, when it starts.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Set, Tuple

from repro.cluster.container import Container
from repro.cluster.node import Node
from repro.core import parameters as P
from repro.core.configuration import Configuration
from repro.mapreduce import task_context as tc
from repro.mapreduce.jobspec import TaskId
from repro.mapreduce.shuffle import (
    FETCH_BACKOFF_BASE,
    FETCH_BACKOFF_MAX,
    FETCH_FAILURE_LATENCY,
    FETCH_MAX_RETRIES,
    FETCH_PENALTY_SECONDS,
    FETCH_TIMEOUT,
    SHUFFLE_STREAM_BW,
)
from repro.mapreduce.sortspill import plan_reduce_merge
from repro.mapreduce.task_context import TaskContext
from repro.monitor.statistics import TaskStats
from repro.sim.events import AllOf, AnyOf, Event, Interrupt
from repro.sim.resources import Link
from repro.telemetry.events import FetchRetry, TaskPhaseSpan
from repro.util.backoff import BackoffPolicy

MB = 1024 * 1024

#: How long a fetcher waits after news before re-scanning the event
#: list, batching bursts of map completions into one aggregated fetch.
SHUFFLE_POLL_INTERVAL = 5.0


def attempt_output_dir(output_path: str, task_id: object, attempt: int) -> str:
    """Temporary output directory of one reduce attempt (pre-commit)."""
    return f"{output_path}/_temporary/{task_id}_att{attempt}"


def _shuffle_with_recovery(
    ctx: TaskContext,
    reduce_index: int,
    node: Node,
    copies: int,
    copier_link: Link,
    task_id: TaskId,
    attempt: int,
    stats: TaskStats,
) -> Generator[Event, object, Tuple[float, int]]:
    """Per-source shuffle with Hadoop-style fetch-failure recovery.

    Active only when ``ctx.report_fetch_failure`` is armed (a plan with
    network fault kinds).  Each segment is fetched from its *source*
    node through :meth:`Network.transfer`, up to
    ``shuffle.parallelcopies`` at a time; a fetch races a per-fetch
    timeout, retries with exponential backoff on timeout or
    (flaky-window) connection failure, and after the retry budget is
    spent the source lands in this reducer's penalty box and one
    fetch-failure report goes to the AM.  A segment
    whose output was declared lost stays pending until the re-executed
    map registers its replacement (cursor entries are never consumed
    twice: ``done``/``pending`` membership dedupes re-registrations).
    """
    sim = ctx.sim
    report_failure = ctx.report_fetch_failure
    assert report_failure is not None
    catalog = ctx.catalog
    network = ctx.cluster.network
    bus = sim.telemetry
    task_tel = bus is not None and bus.wants("task")

    fetched_bytes = 0.0
    cursor = 0
    done: Set[int] = set()
    pending: List[int] = []
    #: source node_id -> simulated time its penalty box opens again
    penalized: Dict[int, float] = {}
    seq = 0
    cancelled = False

    def fetch_segment(m: int) -> Generator[Event, object, Tuple[str, int, int, float]]:
        nonlocal seq
        retries = 0
        delays = BackoffPolicy(base=FETCH_BACKOFF_BASE, cap=FETCH_BACKOFF_MAX).delays()
        while True:
            if cancelled:
                return ("cancelled", m, -1, 0.0)
            if not catalog.has_output(m):
                # Declared lost while queued; the parent keeps it
                # pending until the re-run registers a replacement.
                return ("gone", m, -1, 0.0)
            src_id = catalog.node_of(m)
            nbytes = catalog.partition_bytes(m, reduce_index)
            if nbytes <= 0:
                # Zero-length segment: only the header exchange, free.
                return ("ok", m, src_id, 0.0)
            src = ctx.cluster.node(src_id)
            if network.faults.draw_fetch_failure(src_id, node.node_id, sim.now):
                reason = "connection"
                yield sim.timeout(FETCH_FAILURE_LATENCY)
            else:
                seq += 1
                # Attempt-scoped: two live attempts of the same reducer
                # draw identical (m, seq) pairs, and the timeout cancel
                # below must never abandon the sibling's flow.
                label = f"{task_id}.a{attempt}.shuffle.m{m}.f{seq}"
                flow = network.transfer(
                    src, node, nbytes, extra_links=[copier_link], label=label
                )
                idx, _value = yield AnyOf(sim, [flow, sim.timeout(FETCH_TIMEOUT)])
                if idx == 0:
                    return ("ok", m, src_id, nbytes)
                # Timed out: abandon the stalled flow before retrying.
                network.scheduler.cancel_prefix(label)
                reason = "timeout"
            retries += 1
            stats.fetch_retries += 1
            if bus is not None:
                bus.increment("shuffle.fetch_retries")
            if task_tel:
                bus.emit(
                    FetchRetry(
                        time=sim.now,
                        task=str(task_id),
                        attempt=attempt,
                        map_index=m,
                        src_node_id=src_id,
                        dst_node_id=node.node_id,
                        reason=reason,
                        retry=retries,
                    )
                )
            if retries > FETCH_MAX_RETRIES:
                return ("failed", m, src_id, 0.0)
            pause = next(delays)
            stats.fetch_penalty_seconds += pause
            yield sim.timeout(pause)

    while True:
        cursor, fresh = catalog.new_outputs_since(cursor)
        for m in fresh:
            if m not in done and m not in pending:
                pending.append(m)
        if len(done) >= catalog.num_maps:
            break
        now = sim.now
        ready = [
            m
            for m in pending
            if catalog.has_output(m) and penalized.get(catalog.node_of(m), 0.0) <= now
        ]
        if ready:
            batch = ready[:copies]
            procs = [
                sim.process(fetch_segment(m), name=f"{task_id}.fetch.m{m}")
                for m in batch
            ]
            try:
                results = yield AllOf(sim, procs)
            except Interrupt:
                # Killed mid-round (preemption, photo-finish loss): the
                # flag makes orphaned fetchers drain at their next wake
                # instead of fetching for a dead reducer.
                cancelled = True
                raise
            for outcome, m, src_id, nbytes in results:
                if outcome == "ok":
                    done.add(m)
                    pending.remove(m)
                    fetched_bytes += nbytes
                elif outcome == "failed":
                    penalized[src_id] = sim.now + FETCH_PENALTY_SECONDS
                    report_failure(m, src_id, str(task_id))
                # "gone" stays pending until re-registered (or the AM
                # closes the catalog for good).
            if ctx.progress is not None:
                ctx.progress.update(
                    task_id, attempt, 0.33 * len(done) / max(1, catalog.num_maps)
                )
            continue
        # Nothing fetchable right now: wait for news, but re-poll on a
        # timer too so penalty-box expiry is noticed without an event.
        live = [m for m in pending if catalog.has_output(m)]
        if catalog.maps_done and not pending:
            break
        if catalog.closed and not live:
            # Remaining segments are permanently gone (a map failed for
            # good); stop fetching so the job fails instead of hanging.
            break
        yield AnyOf(sim, [catalog.wait_for_news(), sim.timeout(SHUFFLE_POLL_INTERVAL)])
    return fetched_bytes, len(done)


def run_reduce_task(
    ctx: TaskContext,
    reduce_index: int,
    container: Container,
    config: Configuration,
    attempt: int = 1,
    wave: int = -1,
) -> Generator[Event, object, TaskStats]:
    """Execute one reduce-task attempt; returns its :class:`TaskStats`."""
    sim = ctx.sim
    node = container.node
    profile = ctx.spec.workload
    task_id = ctx.spec.reduce_task_id(reduce_index)
    # Flow labels are attempt-scoped (and the container tag kills by the
    # same prefix) so killing one attempt never cancels a concurrent
    # sibling's in-flight flows.
    tag = f"{task_id}.a{attempt}"

    tel = sim.telemetry
    if tel is None or not tel.wants("task"):
        tel = None  # phase spans off: emission sites reduce to a None check

    def _span(name: str, phase_start: float, **detail: object) -> None:
        tel.emit(
            TaskPhaseSpan(
                time=sim.now,
                name=name,
                start=phase_start,
                node_id=node.node_id,
                track=f"container-{container.container_id}",
                job_id=task_id.job_id,
                task=str(task_id),
                attempt=attempt,
                detail=detail,
            )
        )

    start = sim.now
    stats = TaskStats(
        task_id=task_id,
        task_type=task_id.task_type,
        node_id=node.node_id,
        attempt=attempt,
        config=config.as_dict(),
        start_time=start,
        end_time=start,
        cpu_seconds=0.0,
        allocated_cores=tc.allocated_cores(
            node.resources.cores_per_vcore, int(config[P.REDUCE_CPU_VCORES])
        ),
        working_set_bytes=0.0,
        container_memory_bytes=container.memory_bytes,
        wave=wave,
    )

    yield sim.timeout(tc.CONTAINER_LAUNCH_OVERHEAD)

    heap = config.reduce_heap_bytes
    shuffle_buf = heap * float(config[P.SHUFFLE_INPUT_BUFFER_PERCENT])
    cores_cap = tc.effective_core_cap(
        node.resources.cores_per_vcore,
        int(config[P.REDUCE_CPU_VCORES]),
        profile.reduce_cpu_parallelism,
    )

    # ------------------------------------------------------------------
    # Phase 1: shuffle.  One aggregated fetch per availability round.
    # ------------------------------------------------------------------
    # parallelcopies bounds both the copier pool's aggregate rate and
    # the fetch fan-out.
    copies = max(1, int(config[P.SHUFFLE_PARALLELCOPIES]))
    copier_link = Link(f"{task_id}.copiers", copies * SHUFFLE_STREAM_BW)
    shuffle_start = sim.now
    if ctx.report_fetch_failure is not None:
        # Gray-failure fetch path: per-source fetches with timeout,
        # retry/backoff, penalty box, and AM failure reports.
        fetched_bytes, num_segments = yield from _shuffle_with_recovery(
            ctx, reduce_index, node, copies, copier_link, task_id, attempt, stats
        )
    else:
        cursor = 0
        fetched_bytes = 0.0
        num_segments = 0
        while True:
            cursor, fresh = ctx.catalog.new_outputs_since(cursor)
            if fresh:
                batch = ctx.catalog.batch_bytes_for_reducer(fresh, reduce_index)
                num_segments += len(fresh)
                if batch > 0:
                    yield ctx.cluster.network.fetch_into(
                        node, batch, extra_links=[copier_link], label=f"{tag}.shuffle"
                    )
                    fetched_bytes += batch
                if ctx.progress is not None:
                    ctx.progress.update(
                        task_id, attempt, 0.33 * cursor / max(1, ctx.catalog.num_maps)
                    )
            elif ctx.catalog.maps_done:
                break
            else:
                yield ctx.catalog.wait_for_news()
                # Batch availability into poll windows (Hadoop's fetchers
                # likewise poll completion events periodically) so a burst
                # of map completions becomes one aggregated fetch.
                yield sim.timeout(SHUFFLE_POLL_INTERVAL)

    input_records = int(round(fetched_bytes / max(1.0, profile.map_output_record_size)))
    stats.shuffled_bytes = fetched_bytes
    stats.reduce_input_records = input_records
    if tel is not None:
        _span(
            "reduce.shuffle",
            shuffle_start,
            fetched_bytes=fetched_bytes,
            segments=num_segments,
        )

    # ------------------------------------------------------------------
    # Phase 2: merge planning and shuffle-phase disk traffic.
    # ------------------------------------------------------------------
    plan = plan_reduce_merge(
        input_bytes=fetched_bytes,
        input_records=input_records,
        num_segments=max(1, num_segments),
        heap_bytes=heap,
        shuffle_input_buffer_percent=float(config[P.SHUFFLE_INPUT_BUFFER_PERCENT]),
        shuffle_merge_percent=float(config[P.SHUFFLE_MERGE_PERCENT]),
        shuffle_memory_limit_percent=float(config[P.SHUFFLE_MEMORY_LIMIT_PERCENT]),
        merge_inmem_threshold=int(config[P.MERGE_INMEM_THRESHOLD]),
        reduce_input_buffer_percent=float(config[P.REDUCE_INPUT_BUFFER_PERCENT]),
        sort_factor=int(config[P.IO_SORT_FACTOR]),
    )

    retained = plan.retained_in_memory_bytes
    # Resident memory peaks at the larger of the two phases: the shuffle
    # buffer's *touched* portion, or the reduce phase's retained segments
    # plus the user code's state.  An oversized buffer that the input
    # never fills does not show up as used.
    touched_buf = min(shuffle_buf, fetched_bytes)
    stats.working_set_bytes = tc.CONTAINER_BASE_OVERHEAD_BYTES + min(
        heap,
        max(touched_buf, retained + profile.reduce_fixed_mem_bytes),
    )

    if retained + profile.reduce_fixed_mem_bytes > heap:
        # OOM during the reduce phase: retained segments plus user state
        # exceed the heap.
        stats.end_time = sim.now
        stats.failed = True
        stats.failure_kind = "oom"
        stats.failure_reason = (
            f"OutOfMemory: retained {retained / MB:.0f} MB + user code "
            f"{profile.reduce_fixed_mem_bytes // MB} MB exceeds heap {heap // MB} MB"
        )
        return stats

    sort_start = sim.now
    shuffle_disk_in = plan.direct_to_disk_bytes + plan.inmem_spill_bytes
    if shuffle_disk_in > 0:
        yield node.disk_write(shuffle_disk_in, label=f"{tag}.shufspill")
    if plan.disk_merge_rounds > 0:
        merge_cpu = tc.MERGE_CPU_PER_MB * plan.disk_merge_write_bytes / MB
        yield AllOf(
            sim,
            [
                node.disk_read(plan.disk_merge_read_bytes, label=f"{tag}.mrg.rd"),
                node.disk_write(plan.disk_merge_write_bytes, label=f"{tag}.mrg.wr"),
                node.compute(merge_cpu, cores_cap, label=f"{tag}.mrg"),
            ],
        )
        stats.cpu_seconds += merge_cpu
    if tel is not None and (shuffle_disk_in > 0 or plan.disk_merge_rounds > 0):
        _span(
            "reduce.sort",
            sort_start,
            spill_bytes=shuffle_disk_in,
            merge_rounds=plan.disk_merge_rounds,
        )
    if ctx.progress is not None:
        ctx.progress.update(task_id, attempt, 0.66)

    # ------------------------------------------------------------------
    # Phase 3: the reduce function, streaming the final merge from disk.
    # ------------------------------------------------------------------
    reduce_start = sim.now
    cpu_work = (
        profile.reduce_cpu_fixed_sec + profile.reduce_cpu_per_mb * fetched_bytes / MB
    )
    waits = [node.compute(cpu_work, cores_cap, label=f"{tag}.reduce")]
    if plan.final_read_bytes > 0:
        waits.append(node.disk_read(plan.final_read_bytes, label=f"{tag}.final.rd"))
    yield AllOf(sim, waits)
    stats.cpu_seconds += cpu_work
    if tel is not None:
        _span("reduce.reduce", reduce_start, cpu_seconds=cpu_work)
    if ctx.progress is not None:
        ctx.progress.update(task_id, attempt, 0.90)

    # ------------------------------------------------------------------
    # Phase 4: write the partition to an attempt-scoped temporary path,
    # then commit with an atomic rename (Hadoop's OutputCommitter).  A
    # killed attempt leaves only temp files, which the app master sweeps;
    # a speculative loser that finishes sees the winner's committed file
    # and discards its own output.
    # ------------------------------------------------------------------
    output_bytes = ctx.dataflow.reduce_output_bytes(fetched_bytes)
    if output_bytes > 0:
        final_path = f"{ctx.spec.output_path}/part-{reduce_index:05d}"
        tmp_path = attempt_output_dir(ctx.spec.output_path, task_id, attempt) + (
            f"/part-{reduce_index:05d}"
        )
        if ctx.hdfs.exists(tmp_path):
            ctx.hdfs.delete(tmp_path)  # stale leftovers from this attempt
        yield ctx.hdfs.write_file(tmp_path, int(output_bytes), node)
        if ctx.hdfs.exists(final_path):
            ctx.hdfs.delete(tmp_path)  # lost the commit race to a backup
        else:
            ctx.hdfs.rename(tmp_path, final_path)

    yield sim.timeout(tc.TASK_COMMIT_OVERHEAD)

    stats.end_time = sim.now
    stats.spilled_records = plan.spilled_records
    return stats
