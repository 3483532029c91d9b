"""Shared context handed to task processes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster.topology import Cluster
from repro.hdfs.filesystem import HdfsFileSystem
from repro.mapreduce.dataflow import JobDataflow
from repro.mapreduce.jobspec import JobSpec
from repro.mapreduce.shuffle import MapOutputCatalog
from repro.monitor.statistics import ProgressBoard
from repro.sim.engine import Simulator

# Timing constants shared by both task types (seconds).
CONTAINER_LAUNCH_OVERHEAD = 1.5  # JVM + localization
TASK_COMMIT_OVERHEAD = 0.3
#: Memory a container consumes beyond heap buffers (JVM, stacks, code).
CONTAINER_BASE_OVERHEAD_BYTES = 150 * 1024 * 1024
#: Extra physical-core headroom a container may burst into beyond its
#: strict vcore share (YARN's cgroup shares only bind under contention;
#: the paper observes a 1-vcore BBP mapper at 99% of a core).
CPU_BURST_FACTOR = 4.0
#: CPU cost of sorting/serializing one MB of map output (core-seconds).
SORT_CPU_PER_MB = 0.015
#: CPU cost of merging one MB during reduce-side merges (core-seconds).
MERGE_CPU_PER_MB = 0.008


@dataclass
class TaskContext:
    """Services a task process needs to execute."""

    sim: Simulator
    cluster: Cluster
    hdfs: HdfsFileSystem
    spec: JobSpec
    dataflow: JobDataflow
    catalog: MapOutputCatalog
    #: Live attempt-progress reporting (feeds speculative execution).
    progress: Optional[ProgressBoard] = None
    #: The AM's fetch-failure callback, ``(map_index, src_node_id,
    #: reducer_task_id)``.  Set only when the network's gray-failure
    #: state is armed, it switches reducers onto the per-fetch recovery
    #: path; ``None`` keeps the aggregated fetch rounds (fault-free and
    #: legacy-fault runs).
    report_fetch_failure: Optional[Callable[[int, int, str], None]] = None


def allocated_cores(node_cores_per_vcore: float, vcores: int) -> float:
    """Physical-core entitlement of a container (with burst headroom)."""
    return vcores * node_cores_per_vcore * CPU_BURST_FACTOR


def effective_core_cap(
    node_cores_per_vcore: float, vcores: int, parallelism: float
) -> float:
    """Cores a task can actually use: entitlement capped by its own parallelism."""
    return min(allocated_cores(node_cores_per_vcore, vcores), max(0.05, parallelism))
