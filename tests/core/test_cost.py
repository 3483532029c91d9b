"""Tests for the Equation-1 cost function."""

import pytest

from repro.core.cost import FAILURE_COST, task_cost
from repro.mapreduce.jobspec import TaskId, TaskType
from repro.monitor.statistics import TaskStats


def make_stats(
    task_type=TaskType.MAP,
    duration=10.0,
    cpu_seconds=5.0,
    allocated_cores=1.0,
    working_set=512 * 1024**2,
    container=1024 * 1024**2,
    spilled=100,
    map_out=100,
    combine_out=0,
    reduce_in=0,
    failed=False,
    index=0,
):
    return TaskStats(
        task_id=TaskId("job_t", task_type, index),
        task_type=task_type,
        node_id=0,
        attempt=1,
        config={},
        start_time=0.0,
        end_time=duration,
        cpu_seconds=cpu_seconds,
        allocated_cores=allocated_cores,
        working_set_bytes=working_set,
        container_memory_bytes=container,
        spilled_records=spilled,
        map_output_records=map_out,
        combine_output_records=combine_out,
        reduce_input_records=reduce_in,
        failed=failed,
    )


class TestTaskCost:
    def test_equation1_composition(self):
        s = make_stats(duration=10, cpu_seconds=5, working_set=512 * 1024**2)
        # umem=0.5, ucpu=0.5, spill ratio=1, T/Tmax=0.5
        assert task_cost(s, t_max=20.0) == pytest.approx(0.5 + 0.5 + 1.0 + 0.5)

    def test_perfect_task_costs_near_zero_plus_spill(self):
        s = make_stats(
            duration=10,
            cpu_seconds=10,
            working_set=1024 * 1024**2,
            spilled=100,
            map_out=100,
        )
        # umem=1, ucpu=1, spill=1 (unavoidable single write), T/Tmax=1
        assert task_cost(s, t_max=10.0) == pytest.approx(2.0)

    def test_failure_penalty_dominates(self):
        s = make_stats(failed=True)
        assert task_cost(s, t_max=10.0) == FAILURE_COST
        assert FAILURE_COST > 4.0  # worse than any feasible cost

    def test_lower_spills_lower_cost(self):
        a = make_stats(spilled=300, map_out=100)
        b = make_stats(spilled=100, map_out=100)
        assert task_cost(b, 10.0) < task_cost(a, 10.0)

    def test_spill_ratio_capped(self):
        s = make_stats(spilled=10**9, map_out=1)
        assert task_cost(s, 10.0) < FAILURE_COST

    def test_zero_tmax_guard(self):
        s = make_stats(duration=5)
        assert task_cost(s, 0.0) >= 1.0

    def test_reduce_spill_ratio_uses_input_records(self):
        s = make_stats(
            task_type=TaskType.REDUCE, spilled=0, reduce_in=1000, map_out=0
        )
        assert s.spill_ratio == 0.0

    def test_combiner_output_preferred_for_ratio(self):
        s = make_stats(spilled=50, map_out=100, combine_out=50)
        assert s.spill_ratio == pytest.approx(1.0)
