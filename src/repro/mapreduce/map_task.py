"""The map task process: read, map, sort-buffer spills, merge, commit.

The read and the map function are pipelined (Hadoop streams records),
so they run as concurrent flows and the phase ends when both finish.
Spill and merge I/O follow the :func:`plan_map_spills` plan.

Out-of-memory behaviour: if the configured sort buffer plus the user
code's working set exceeds the container heap, the attempt burns part
of its work and fails -- the penalty that makes infeasible
configurations expensive for the search, exactly as on real clusters.
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.container import Container
from repro.core import parameters as P
from repro.core.configuration import Configuration
from repro.hdfs.block import Block
from repro.mapreduce import task_context as tc
from repro.mapreduce.sortspill import plan_map_spills
from repro.mapreduce.task_context import TaskContext
from repro.monitor.statistics import TaskStats
from repro.sim.events import AllOf, Event
from repro.telemetry.events import TaskPhaseSpan

MB = 1024 * 1024


def run_map_task(
    ctx: TaskContext,
    map_index: int,
    block: Block,
    container: Container,
    config: Configuration,
    attempt: int = 1,
    wave: int = -1,
) -> Generator[Event, object, TaskStats]:
    """Execute one map-task attempt; returns its :class:`TaskStats`."""
    sim = ctx.sim
    node = container.node
    profile = ctx.spec.workload
    task_id = ctx.spec.map_task_id(map_index)
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
            node.resources.cores_per_vcore, int(config[P.MAP_CPU_VCORES])
        ),
        working_set_bytes=0.0,
        container_memory_bytes=container.memory_bytes,
        wave=wave,
    )

    yield sim.timeout(tc.CONTAINER_LAUNCH_OVERHEAD)

    heap = config.map_heap_bytes
    sort_buffer = config.sort_buffer_bytes
    #: Heap *allocation* -- what the JVM must fit under -Xmx (the sort
    #: buffer array is allocated at full size up front).
    demand = profile.map_fixed_mem_bytes + sort_buffer

    input_bytes = float(block.size_bytes)
    out_bytes, out_records = ctx.dataflow.map_output(map_index)

    # Monitored memory is *resident* pages: an oversized sort buffer is
    # allocated but never touched past the output volume, so the node
    # manager does not see it as used.
    touched = profile.map_fixed_mem_bytes + min(sort_buffer, out_bytes)
    stats.working_set_bytes = tc.CONTAINER_BASE_OVERHEAD_BYTES + min(heap, touched)
    cores_cap = tc.effective_core_cap(
        node.resources.cores_per_vcore,
        int(config[P.MAP_CPU_VCORES]),
        profile.map_cpu_parallelism,
    )

    if demand > heap:
        # OOM: the JVM dies partway through the split.
        burn = 0.5 * (
            profile.map_cpu_fixed_sec + profile.map_cpu_per_mb * input_bytes / MB
        )
        read_ev = ctx.hdfs.read_block(block, node)
        cpu_ev = node.compute(burn, cores_cap, label=f"{tag}.oom")
        yield AllOf(sim, [read_ev, cpu_ev])
        stats.cpu_seconds = burn
        stats.end_time = sim.now
        stats.failed = True
        stats.failure_kind = "oom"
        stats.failure_reason = (
            f"OutOfMemory: sort buffer {sort_buffer // MB} MB + user code "
            f"{profile.map_fixed_mem_bytes // MB} MB exceeds heap {heap // MB} MB"
        )
        return stats

    # ------------------------------------------------------------------
    # Phase 1: read the split while running the map function (pipelined).
    # ------------------------------------------------------------------
    cpu_work = (
        profile.map_cpu_fixed_sec
        + profile.map_cpu_per_mb * input_bytes / MB
        + tc.SORT_CPU_PER_MB * out_bytes / MB
    )
    phase_start = sim.now
    read_ev = ctx.hdfs.read_block(block, node)
    cpu_ev = node.compute(cpu_work, cores_cap, label=f"{tag}.map")
    yield AllOf(sim, [read_ev, cpu_ev])
    stats.cpu_seconds += cpu_work
    if tel is not None:
        _span("map.read", phase_start, input_bytes=input_bytes)
    if ctx.progress is not None:
        ctx.progress.update(task_id, attempt, 0.70)

    # ------------------------------------------------------------------
    # Phase 2: spills and merges.  spill.percent is category-3 (hot
    # swappable): we read it here, mid-task, so an update delivered while
    # the map function was running takes effect.
    # ------------------------------------------------------------------
    plan = plan_map_spills(
        output_records=out_records,
        output_bytes=out_bytes,
        sort_buffer_bytes=sort_buffer,
        spill_percent=float(config[P.SORT_SPILL_PERCENT]),
        sort_factor=int(config[P.IO_SORT_FACTOR]),
        has_combiner=profile.has_combiner,
        combiner_record_ratio=profile.combiner_record_ratio,
        combiner_byte_ratio=profile.combiner_byte_ratio,
    )
    if plan.spill_write_bytes > 0:
        phase_start = sim.now
        yield node.disk_write(plan.spill_write_bytes, label=f"{tag}.spill")
        if tel is not None:
            _span(
                "map.spill",
                phase_start,
                spill_bytes=plan.spill_write_bytes,
                spilled_records=plan.spilled_records,
            )
    if ctx.progress is not None:
        ctx.progress.update(task_id, attempt, 0.85)
    if plan.merge_rounds > 0:
        phase_start = sim.now
        merge_cpu = tc.MERGE_CPU_PER_MB * plan.merge_write_bytes / MB
        yield AllOf(
            sim,
            [
                node.disk_read(plan.merge_read_bytes, label=f"{tag}.mrg.rd"),
                node.disk_write(plan.merge_write_bytes, label=f"{tag}.mrg.wr"),
                node.compute(merge_cpu, cores_cap, label=f"{tag}.mrg"),
            ],
        )
        stats.cpu_seconds += merge_cpu
        if tel is not None:
            _span("map.merge", phase_start, merge_rounds=plan.merge_rounds)

    if ctx.progress is not None:
        ctx.progress.update(task_id, attempt, 0.95)
    yield sim.timeout(tc.TASK_COMMIT_OVERHEAD)

    # Publish the output so reducers can fetch it.  With speculation a
    # backup attempt may have registered first; first wins, and this
    # attempt's output is simply not served.
    partitions = ctx.dataflow.partitions_for_map(map_index, plan.output_bytes)
    ctx.catalog.register_map_output(map_index, node.node_id, partitions)

    stats.end_time = sim.now
    stats.map_output_records = out_records
    stats.map_output_bytes = out_bytes
    stats.combine_output_records = plan.output_records if profile.has_combiner else 0
    stats.spilled_records = plan.spilled_records
    return stats
