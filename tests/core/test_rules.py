"""Tests for the Section-6 tuning rules."""

import numpy as np
import pytest

from repro.core import parameters as P
from repro.core.configuration import HEAP_FRACTION, Configuration
from repro.core.neighborhood import Bounds
from repro.core.parameters import PARAMETER_SPACE
from repro.core.rules import (
    ContainerMemoryRule,
    OomBackoffRule,
    ParallelCopiesRule,
    ReduceBufferRule,
    RuleContext,
    SortBufferRule,
    SortFactorRule,
    SpillPercentRule,
    VcoreRule,
    default_rules,
)
from repro.core.tuner import MAP_TUNABLE, REDUCE_TUNABLE
from repro.mapreduce.jobspec import TaskId, TaskType
from repro.monitor.statistics import TaskStats

MB = 1024**2


def stats(
    task_type=TaskType.MAP,
    duration=20.0,
    mem_util=0.5,
    cpu_util=0.5,
    spilled=100,
    map_out=100,
    map_out_bytes=150 * MB,
    shuffled=0.0,
    config=None,
    failed=False,
    reason="",
    index=0,
):
    container = 1024 * MB
    config = dict(Configuration(config or {}).as_dict())
    alloc = 1.0
    return TaskStats(
        task_id=TaskId("job_r", task_type, index),
        task_type=task_type,
        node_id=0,
        attempt=1,
        config=config,
        start_time=0.0,
        end_time=duration,
        cpu_seconds=cpu_util * duration * alloc,
        allocated_cores=alloc,
        working_set_bytes=mem_util * container,
        container_memory_bytes=container,
        spilled_records=spilled,
        map_output_records=map_out,
        map_output_bytes=map_out_bytes,
        reduce_input_records=int(shuffled // 100) if shuffled else 0,
        shuffled_bytes=shuffled,
        failed=failed,
        failure_reason=reason,
    )


def ctx_for(task_type, window, history=None, names=None):
    if names is None:
        names = MAP_TUNABLE if task_type is TaskType.MAP else REDUCE_TUNABLE
    space = PARAMETER_SPACE.subspace(names)
    return RuleContext(
        task_type=task_type,
        space=space,
        bounds=Bounds(len(space)),
        window=window,
        history=history if history is not None else list(window),
        rng=np.random.default_rng(0),
        memo={},
    )


class TestSortBufferRule:
    def test_bounds_anchor_at_output_size(self):
        window = [stats(map_out_bytes=200 * MB, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        notes = SortBufferRule().adjust_bounds(ctx)
        assert notes
        dim = ctx.dim(P.IO_SORT_MB)
        lo = ctx.space.spec(P.IO_SORT_MB).decode(ctx.bounds.lo[dim])
        hi = ctx.space.spec(P.IO_SORT_MB).decode(ctx.bounds.hi[dim])
        assert 190 <= lo <= 230
        assert hi >= lo

    def test_no_outputs_no_adjustment(self):
        window = [stats(map_out_bytes=0.0)]
        ctx = ctx_for(TaskType.MAP, window)
        assert SortBufferRule().adjust_bounds(ctx) == []

    def test_reduce_window_ignored(self):
        ctx = ctx_for(TaskType.REDUCE, [stats(task_type=TaskType.REDUCE)])
        assert SortBufferRule().adjust_bounds(ctx) == []

    def test_conservative_sets_buffer_to_estimate(self):
        window = [stats(map_out_bytes=180 * MB, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        changes = SortBufferRule().conservative_update(ctx, Configuration())
        assert changes[P.IO_SORT_MB] >= 180

    def test_conservative_grows_container_when_needed(self):
        window = [stats(map_out_bytes=600 * MB, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        changes = SortBufferRule().conservative_update(ctx, Configuration())
        assert changes.get(P.MAP_MEMORY_MB, 0) > 1024

    def test_conservative_respects_user_code_memory(self):
        # Tasks whose working set shows big user state must keep heap room.
        window = [
            stats(map_out_bytes=180 * MB, mem_util=0.8, config={P.IO_SORT_MB: 100}, index=i)
            for i in range(4)
        ]
        ctx = ctx_for(TaskType.MAP, window)
        cfg = Configuration()
        changes = SortBufferRule().conservative_update(ctx, cfg)
        new = cfg.updated(changes)
        heap_mb = new[P.MAP_MEMORY_MB] * HEAP_FRACTION
        fixed_mb = ctx.estimated_map_fixed_mem() / MB
        assert new[P.IO_SORT_MB] + fixed_mb <= heap_mb


class TestSpillPercentRule:
    def test_pins_high_when_buffer_sufficient(self):
        window = [stats(spilled=100, map_out=100, map_out_bytes=50 * MB, index=i) for i in range(3)]
        ctx = ctx_for(TaskType.MAP, window)
        SpillPercentRule().adjust_bounds(ctx)
        dim = ctx.dim(P.SORT_SPILL_PERCENT)
        pinned = ctx.space.spec(P.SORT_SPILL_PERCENT).decode(ctx.bounds.lo[dim])
        assert pinned == pytest.approx(0.99, abs=0.01)

    def test_resets_to_default_when_spills_unavoidable(self):
        # Map outputs beyond the largest feasible sort buffer (1.6 GB):
        # spilling is structural, so early-spill pipelining wins.
        window = [
            stats(spilled=300, map_out=100, map_out_bytes=1700 * MB, index=i)
            for i in range(3)
        ]
        ctx = ctx_for(TaskType.MAP, window)
        SpillPercentRule().adjust_bounds(ctx)
        dim = ctx.dim(P.SORT_SPILL_PERCENT)
        pinned = ctx.space.spec(P.SORT_SPILL_PERCENT).decode(ctx.bounds.lo[dim])
        assert pinned == pytest.approx(0.8, abs=0.01)

    def test_conservative_value(self):
        window = [stats(map_out_bytes=50 * MB, index=i) for i in range(3)]
        ctx = ctx_for(TaskType.MAP, window)
        changes = SpillPercentRule().conservative_update(ctx, Configuration())
        assert changes[P.SORT_SPILL_PERCENT] == 0.99


class TestContainerMemoryRule:
    def test_map_bounds_anchor_at_need(self):
        window = [
            stats(map_out_bytes=150 * MB, mem_util=0.45, config={P.IO_SORT_MB: 100}, index=i)
            for i in range(4)
        ]
        ctx = ctx_for(TaskType.MAP, window)
        notes = ContainerMemoryRule().adjust_bounds(ctx)
        assert notes
        dim = ctx.dim(P.MAP_MEMORY_MB)
        assert ctx.bounds.lo[dim] > 0.0
        assert ctx.bounds.hi[dim] < 1.0

    def test_reduce_bounds_need_shuffle_estimates(self):
        ctx = ctx_for(TaskType.REDUCE, [stats(task_type=TaskType.REDUCE, shuffled=0.0)])
        assert ContainerMemoryRule().adjust_bounds(ctx) == []

    def test_conservative_shrinks_underutilized(self):
        window = [stats(mem_util=0.3, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        changes = ContainerMemoryRule().conservative_update(ctx, Configuration())
        # rng(0) first draw < 0.8, so the lower value is tried.
        assert changes.get(P.MAP_MEMORY_MB, 1024) < 1024

    def test_conservative_grows_overutilized(self):
        window = [stats(mem_util=0.97, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        changes = ContainerMemoryRule().conservative_update(ctx, Configuration())
        assert changes.get(P.MAP_MEMORY_MB, 0) > 1024


class TestReduceBufferRule:
    def test_threshold_pinned_to_zero(self):
        ctx = ctx_for(TaskType.REDUCE, [stats(task_type=TaskType.REDUCE, shuffled=100 * MB)])
        notes = ReduceBufferRule().adjust_bounds(ctx)
        assert any("inmem.threshold" in n for n in notes)
        dim = ctx.dim(P.MERGE_INMEM_THRESHOLD)
        assert ctx.bounds.lo[dim] == ctx.bounds.hi[dim]

    def test_conservative_sizes_buffers_to_input(self):
        window = [
            stats(task_type=TaskType.REDUCE, shuffled=400 * MB, index=i) for i in range(4)
        ]
        ctx = ctx_for(TaskType.REDUCE, window)
        changes = ReduceBufferRule().conservative_update(ctx, Configuration())
        assert P.SHUFFLE_INPUT_BUFFER_PERCENT in changes
        assert changes[P.MERGE_INMEM_THRESHOLD] == 0.0

    def test_conservative_merge_equals_buffer_when_fits(self):
        window = [
            stats(task_type=TaskType.REDUCE, shuffled=200 * MB, index=i) for i in range(4)
        ]
        ctx = ctx_for(TaskType.REDUCE, window)
        changes = ReduceBufferRule().conservative_update(ctx, Configuration())
        assert changes[P.SHUFFLE_MERGE_PERCENT] == pytest.approx(
            changes[P.SHUFFLE_INPUT_BUFFER_PERCENT]
        )

    def test_conservative_gap_when_not_fitting(self):
        window = [
            stats(task_type=TaskType.REDUCE, shuffled=5000 * MB, index=i) for i in range(4)
        ]
        ctx = ctx_for(TaskType.REDUCE, window)
        cfg = Configuration()  # 1 GB reduce: 5 GB cannot fit even if grown
        changes = ReduceBufferRule().conservative_update(ctx, cfg)
        ibp = changes[P.SHUFFLE_INPUT_BUFFER_PERCENT]
        assert changes[P.SHUFFLE_MERGE_PERCENT] == pytest.approx(ibp - 0.04)

    def test_map_window_ignored(self):
        ctx = ctx_for(TaskType.MAP, [stats()])
        assert ReduceBufferRule().conservative_update(ctx, Configuration()) == {}


class TestCpuRules:
    def test_vcores_increase_when_saturated(self):
        window = [stats(cpu_util=0.99, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        changes = VcoreRule().conservative_update(ctx, Configuration())
        assert changes[P.MAP_CPU_VCORES] == 2

    def test_vcores_decrease_when_idle(self):
        window = [stats(cpu_util=0.1, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        changes = VcoreRule().conservative_update(
            ctx, Configuration({P.MAP_CPU_VCORES: 3})
        )
        assert changes[P.MAP_CPU_VCORES] == 2

    def test_vcores_no_change_in_between(self):
        window = [stats(cpu_util=0.6, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        assert VcoreRule().conservative_update(ctx, Configuration()) == {}

    def test_parallelcopies_increments_of_ten(self):
        window = [stats(task_type=TaskType.REDUCE, shuffled=100 * MB, index=i) for i in range(4)]
        ctx = ctx_for(TaskType.REDUCE, window)
        changes = ParallelCopiesRule().conservative_update(ctx, Configuration())
        assert changes[P.SHUFFLE_PARALLELCOPIES] == 15

    def test_parallelcopies_stops_without_improvement(self):
        rule = ParallelCopiesRule()
        ctx = ctx_for(TaskType.REDUCE, [stats(task_type=TaskType.REDUCE, duration=20, shuffled=MB)])
        cfg = Configuration()
        rule.conservative_update(ctx, cfg)  # first bump, remembers t=20
        # Second window: same duration => stop flag set, no change.
        ctx.window = [stats(task_type=TaskType.REDUCE, duration=20, shuffled=MB, index=1)]
        assert rule.conservative_update(ctx, cfg) == {}
        # Even a later improving window stays stopped.
        ctx.window = [stats(task_type=TaskType.REDUCE, duration=5, shuffled=MB, index=2)]
        assert rule.conservative_update(ctx, cfg) == {}

    def test_parallelcopies_keeps_climbing_while_improving(self):
        rule = ParallelCopiesRule()
        ctx = ctx_for(TaskType.REDUCE, [stats(task_type=TaskType.REDUCE, duration=20, shuffled=MB)])
        cfg = Configuration()
        first = rule.conservative_update(ctx, cfg)
        ctx.window = [stats(task_type=TaskType.REDUCE, duration=10, shuffled=MB, index=1)]
        second = rule.conservative_update(ctx, cfg.updated(first))
        assert second[P.SHUFFLE_PARALLELCOPIES] == 25

    def test_sort_factor_increments_of_twenty(self):
        window = [stats(index=i) for i in range(4)]
        ctx = ctx_for(TaskType.MAP, window)
        changes = SortFactorRule().conservative_update(ctx, Configuration())
        assert changes[P.IO_SORT_FACTOR] == 30


class TestOomBackoff:
    def test_grows_memory_on_oom(self):
        window = [stats(failed=True, reason="OutOfMemory: boom")]
        ctx = ctx_for(TaskType.MAP, window)
        changes = OomBackoffRule().conservative_update(ctx, Configuration())
        assert changes[P.MAP_MEMORY_MB] > 1024
        assert changes[P.IO_SORT_MB] < 100

    def test_non_oom_failures_ignored(self):
        window = [stats(failed=True, reason="disk error")]
        ctx = ctx_for(TaskType.MAP, window)
        assert OomBackoffRule().conservative_update(ctx, Configuration()) == {}

    def test_reduce_oom_grows_reduce_memory(self):
        window = [stats(task_type=TaskType.REDUCE, failed=True, reason="OutOfMemory")]
        ctx = ctx_for(TaskType.REDUCE, window)
        changes = OomBackoffRule().conservative_update(ctx, Configuration())
        assert changes[P.REDUCE_MEMORY_MB] > 1024


def test_default_rules_order_starts_with_oom_backoff():
    rules = default_rules()
    assert isinstance(rules[0], OomBackoffRule)
    assert len(rules) == 8
