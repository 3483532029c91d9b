"""Memory tuning rules (Section 6.2).

Four guidelines:

* container memory bounds follow observed utilization (over 90% ->
  raise the lower bound to the 80th percentile of sampled values;
  under 50% -> drop the upper bound to the 80th percentile);
* ``io.sort.mb`` follows the observed map-output size and spill ratio;
* ``sort.spill.percent`` is pinned at 0.99 while the buffer suffices,
  reset to the default when spilling is unavoidable;
* the reduce-side buffer stack is sized from the estimated reduce input
  (merge trigger equal to the shuffle buffer when everything fits,
  0.04 below it otherwise; in-memory merge threshold forced to 0).
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.core import parameters as P
from repro.core.configuration import HEAP_FRACTION, Configuration
from repro.core.rules.base import MB, RuleContext, TuningRule
from repro.mapreduce.jobspec import TaskType

OVER_UTILIZED = 0.90
UNDER_UTILIZED = 0.50
PERCENTILE = 80
#: Safety margin applied to size estimates (data volumes vary per task).
ESTIMATE_MARGIN = 1.15


def _memory_param(task_type: TaskType) -> str:
    return P.MAP_MEMORY_MB if task_type is TaskType.MAP else P.REDUCE_MEMORY_MB


class OomBackoffRule(TuningRule):
    """React to OutOfMemory attempts: grow the container, shrink buffers.

    The conservative strategy must not keep feeding a lethal
    configuration to new tasks, so OOM failures in the window trigger an
    immediate 25% container-memory increase (and a sort-buffer trim on
    the map side).  The aggressive strategy needs no such rule -- failed
    samples already receive :data:`~repro.core.cost.FAILURE_COST`.
    """

    name = "oom-backoff"
    GROWTH = 1.25

    def conservative_update(
        self, ctx: RuleContext, config: Configuration
    ) -> Dict[str, float]:
        if not ctx.oom_failures():
            return {}
        param = _memory_param(ctx.task_type)
        mem_spec = P.PARAMETER_SPACE.spec(param)
        target = mem_spec.clamp(
            math.ceil(float(config[param]) * self.GROWTH / 64.0) * 64
        )
        changes: Dict[str, float] = {}
        if target > config[param]:
            changes[param] = float(target)
        if ctx.task_type is TaskType.MAP:
            sort_spec = P.PARAMETER_SPACE.spec(P.IO_SORT_MB)
            trimmed = sort_spec.clamp(float(config[P.IO_SORT_MB]) * 0.8)
            if trimmed < config[P.IO_SORT_MB]:
                changes[P.IO_SORT_MB] = float(trimmed)
        return changes


class ContainerMemoryRule(TuningRule):
    """Tune the container grant toward the observed working set."""

    name = "container-memory"

    def adjust_bounds(self, ctx: RuleContext) -> List[str]:
        """Anchor the container-memory search range at the observed need.

        The monitored working sets tell us how much memory the tasks
        *actually* use (Section 6.2 "use the memory utilization
        statistics from node managers to determine the memory usage");
        bounding the search to a band around that need stops the climber
        from wasting waves on grossly over- or under-sized containers.
        The band is tight (x0.9 .. x1.15): the need estimate already
        carries buffer headroom, and a looser band would let the search
        trade wasted memory for per-task speed (bigger containers lower
        per-node parallelism -- good for one task, bad for the cluster).
        """
        param = _memory_param(ctx.task_type)
        dim = ctx.dim(param)
        if dim is None:
            return []
        ok = [s for s in ctx.history if not s.failed]
        if not ok:
            return []
        if ctx.task_type is TaskType.MAP:
            # Need = user code + a right-sized sort buffer (the buffer in
            # the observed working set may itself be mis-sized).
            fixed = ctx.estimated_map_fixed_mem()
            outs = [s.map_output_bytes for s in ok if s.map_output_bytes > 0]
            # Align with SortBufferRule's anchor: the container must host
            # a buffer that holds even the largest map outputs.
            buffer_need = (
                float(np.percentile(outs, 98)) * 1.2 if outs else 100 * MB
            )
            need_mb = (150 * MB + fixed + buffer_need) / HEAP_FRACTION / MB
        else:
            ins = [s.shuffled_bytes for s in ok if s.shuffled_bytes > 0]
            if not ins:
                return []
            est_in = float(np.percentile(ins, PERCENTILE)) * ESTIMATE_MARGIN
            # Heap that holds the whole shuffle in memory plus reducer state.
            need_mb = (est_in + 256 * MB) / HEAP_FRACTION / MB + 150
        spec_obj = ctx.space.spec(param)
        lo = spec_obj.clamp(need_mb * 0.9)
        hi = spec_obj.clamp(max(need_mb * 1.15, lo + 64))
        ctx.bounds.raise_lower(dim, ctx.encode(param, lo))
        ctx.bounds.lower_upper(dim, ctx.encode(param, hi))
        return [f"{param}: bounds -> [{lo:.0f}, {hi:.0f}] MB (need ~{need_mb:.0f})"]

    def conservative_update(
        self, ctx: RuleContext, config: Configuration
    ) -> Dict[str, float]:
        param = _memory_param(ctx.task_type)
        ok = ctx.ok_window()
        if not ok:
            return {}
        # Estimate the real need from observed peak working sets.
        need = max(s.working_set_bytes for s in ok) * ESTIMATE_MARGIN
        current = float(config[param])
        target_mb = P.PARAMETER_SPACE.spec(param).clamp(math.ceil(need / MB / 64.0) * 64)
        mean_util = ctx.mean(s.memory_utilization for s in ok)
        if mean_util <= UNDER_UTILIZED and target_mb < current:
            # Under-utilized: try the lower value with high probability.
            if ctx.rng.random() < 0.8:
                return {param: float(target_mb)}
            return {}
        if mean_util >= OVER_UTILIZED and target_mb > current:
            return {param: float(target_mb)}
        return {}


class SortBufferRule(TuningRule):
    """Size ``io.sort.mb`` from the monitored map-output volume."""

    name = "sort-buffer"

    def _estimated_output_mb(self, ctx: RuleContext) -> float:
        outs = [s.map_output_bytes for s in ctx.history if not s.failed and s.map_output_bytes > 0]
        if not outs:
            return 0.0
        return float(np.percentile(outs, PERCENTILE)) / MB

    def adjust_bounds(self, ctx: RuleContext) -> List[str]:
        """Anchor ``io.sort.mb`` at the monitored map-output size.

        Section 6.2's primary rule: "configure the buffer size based on
        map output size by continuously monitoring the number of spill
        records and the size of map outputs".  One buffer-sized band
        around the estimate removes most of the dimension's range after
        the first wave.
        """
        if ctx.task_type is not TaskType.MAP:
            return []
        dim = ctx.dim(P.IO_SORT_MB)
        if dim is None:
            return []
        # Anchor at (nearly) the largest output seen: tasks above a mere
        # 80th-percentile buffer would still double-spill, defeating the
        # "reduce spills to optimal" goal of Figures 7-9.
        outs = [
            s.map_output_bytes
            for s in ctx.history
            if not s.failed and s.map_output_bytes > 0
        ]
        if not outs:
            return []
        est_mb = float(np.percentile(outs, 98)) / MB
        spec_obj = ctx.space.spec(P.IO_SORT_MB)
        lo = spec_obj.clamp(est_mb * 1.05)
        hi = spec_obj.clamp(max(est_mb * 1.35, lo + 10))
        ctx.bounds.raise_lower(dim, ctx.encode(P.IO_SORT_MB, lo))
        ctx.bounds.lower_upper(dim, ctx.encode(P.IO_SORT_MB, hi))
        return [
            f"io.sort.mb: bounds -> [{lo:.0f}, {hi:.0f}] MB "
            f"(p98 map output ~{est_mb:.0f} MB)"
        ]

    #: Fraction of the heap the sort buffer + user code may occupy.
    HEAP_BUDGET = 0.92

    def conservative_update(
        self, ctx: RuleContext, config: Configuration
    ) -> Dict[str, float]:
        if ctx.task_type is not TaskType.MAP:
            return {}
        est_mb = self._estimated_output_mb(ctx) * ESTIMATE_MARGIN
        if est_mb <= 0:
            return {}
        changes: Dict[str, float] = {}
        spec = P.PARAMETER_SPACE.spec(P.IO_SORT_MB)
        target = spec.clamp(math.ceil(est_mb / 10.0) * 10)
        # The buffer and the map function share the heap: leave room for
        # the user code's (gray-box estimated) working set.
        fixed_mb = ctx.estimated_map_fixed_mem() / MB
        heap_mb = float(config[P.MAP_MEMORY_MB]) * HEAP_FRACTION
        budget = heap_mb * self.HEAP_BUDGET - fixed_mb
        if target > budget:
            mem_spec = P.PARAMETER_SPACE.spec(P.MAP_MEMORY_MB)
            need_mb = math.ceil(
                (target + fixed_mb) / self.HEAP_BUDGET / HEAP_FRACTION / 64.0
            ) * 64
            need_mb = mem_spec.clamp(need_mb)
            if need_mb > config[P.MAP_MEMORY_MB]:
                changes[P.MAP_MEMORY_MB] = float(need_mb)
            budget = need_mb * HEAP_FRACTION * self.HEAP_BUDGET - fixed_mb
            target = spec.clamp(min(target, budget))
        if target != config[P.IO_SORT_MB]:
            changes[P.IO_SORT_MB] = float(target)
        return changes


class SpillPercentRule(TuningRule):
    """Pin ``sort.spill.percent`` at 0.99 while the buffer suffices."""

    name = "spill-percent"
    HIGH = 0.99

    def _buffer_sufficient(self, ctx: RuleContext, config_mb: float) -> bool:
        outs = [s.map_output_bytes for s in ctx.history if not s.failed and s.map_output_bytes > 0]
        if not outs:
            return True  # optimistic until evidence arrives
        return float(np.percentile(outs, PERCENTILE)) / MB <= config_mb * self.HIGH

    def adjust_bounds(self, ctx: RuleContext) -> List[str]:
        if ctx.task_type is not TaskType.MAP:
            return []
        dim = ctx.dim(P.SORT_SPILL_PERCENT)
        if dim is None or not ctx.ok_window():
            return []
        # With a sufficient buffer a high threshold avoids write
        # triggers entirely; pin the dimension at 0.99.  Only when no
        # feasible buffer could hold the map output (spills structurally
        # unavoidable) does the default's early-spill pipelining win.
        # Judging by the *current* window's spills would self-fulfill:
        # an early 0.8 pin keeps borderline buffers spilling forever.
        outs = [
            s.map_output_bytes
            for s in ctx.history
            if not s.failed and s.map_output_bytes > 0
        ]
        if ctx.dim(P.IO_SORT_MB) is not None:
            max_buffer_mb = ctx.space.spec(P.IO_SORT_MB).high
        else:
            max_buffer_mb = 1600
        spills_unavoidable = bool(outs) and (
            float(np.percentile(outs, 98)) / MB > max_buffer_mb * self.HIGH
        )
        target = 0.8 if spills_unavoidable else self.HIGH
        enc = ctx.encode(P.SORT_SPILL_PERCENT, target)
        ctx.bounds.reset(dim)
        ctx.bounds.raise_lower(dim, enc)
        ctx.bounds.lower_upper(dim, enc)
        return [f"sort.spill.percent pinned at {target}"]

    def conservative_update(
        self, ctx: RuleContext, config: Configuration
    ) -> Dict[str, float]:
        if ctx.task_type is not TaskType.MAP:
            return {}
        target = (
            self.HIGH
            if self._buffer_sufficient(ctx, float(config[P.IO_SORT_MB]))
            else 0.8
        )
        if abs(target - float(config[P.SORT_SPILL_PERCENT])) > 1e-9:
            return {P.SORT_SPILL_PERCENT: target}
        return {}


class ReduceBufferRule(TuningRule):
    """Size the reduce-side buffer stack from the estimated input."""

    name = "reduce-buffers"
    MERGE_GAP = 0.04  # default YARN gap between input-buffer and merge percents

    def _estimated_input_mb(self, ctx: RuleContext) -> float:
        ins = [s.shuffled_bytes for s in ctx.history if not s.failed and s.shuffled_bytes > 0]
        if not ins:
            return 0.0
        return float(np.percentile(ins, PERCENTILE)) / MB

    def adjust_bounds(self, ctx: RuleContext) -> List[str]:
        if ctx.task_type is not TaskType.REDUCE:
            return []
        notes: List[str] = []
        # The in-memory merge threshold is best disabled (merge purely on
        # memory consumption, Section 6.2): pin it at 0.
        dim = ctx.dim(P.MERGE_INMEM_THRESHOLD)
        if dim is not None:
            enc = ctx.encode(P.MERGE_INMEM_THRESHOLD, 0)
            ctx.bounds.reset(dim)
            ctx.bounds.raise_lower(dim, enc)
            ctx.bounds.lower_upper(dim, enc)
            notes.append("merge.inmem.threshold pinned at 0")
        ok = ctx.ok_window()
        if not ok:
            return notes
        # Spills observed on the reduce side mean the in-memory path was
        # too small: with the container band anchored at "heap holds the
        # whole input" (ContainerMemoryRule), generous buffer fractions
        # are what make that heap effective -- raise their floors.
        mean_ratio = ctx.mean(s.spill_ratio for s in ok)
        if mean_ratio > 0.0:
            for param, floor in (
                (P.SHUFFLE_INPUT_BUFFER_PERCENT, 0.55),
                (P.SHUFFLE_MERGE_PERCENT, 0.5),
                (P.REDUCE_INPUT_BUFFER_PERCENT, 0.3),
            ):
                dim = ctx.dim(param)
                if dim is None:
                    continue
                ctx.bounds.raise_lower(dim, ctx.encode(param, floor))
                notes.append(f"{param}: reduce spills seen; lower bound -> {floor}")
        return notes

    def conservative_update(
        self, ctx: RuleContext, config: Configuration
    ) -> Dict[str, float]:
        if ctx.task_type is not TaskType.REDUCE:
            return {}
        est_mb = self._estimated_input_mb(ctx) * ESTIMATE_MARGIN
        if est_mb <= 0:
            return {}
        changes: Dict[str, float] = {}
        heap_mb = float(config[P.REDUCE_MEMORY_MB]) * HEAP_FRACTION
        ibp_spec = P.PARAMETER_SPACE.spec(P.SHUFFLE_INPUT_BUFFER_PERCENT)
        # Size the shuffle buffer to hold the whole input when possible;
        # grow the container if the current heap cannot.
        if est_mb > heap_mb * ibp_spec.high:
            mem_spec = P.PARAMETER_SPACE.spec(P.REDUCE_MEMORY_MB)
            need = mem_spec.clamp(
                math.ceil(est_mb / ibp_spec.high / HEAP_FRACTION / 64.0) * 64
            )
            if need > config[P.REDUCE_MEMORY_MB]:
                changes[P.REDUCE_MEMORY_MB] = float(need)
                heap_mb = need * HEAP_FRACTION
        ibp = ibp_spec.clamp(min(ibp_spec.high, est_mb / heap_mb if heap_mb else 1.0))
        fits = est_mb <= heap_mb * ibp + 1e-9
        if fits:
            # Everything fits: merge trigger equals the buffer, and the
            # reduce phase may retain the segments in memory.
            merge = ibp
            rib_spec = P.PARAMETER_SPACE.spec(P.REDUCE_INPUT_BUFFER_PERCENT)
            rib = rib_spec.clamp(min(rib_spec.high, est_mb / heap_mb))
            changes[P.REDUCE_INPUT_BUFFER_PERCENT] = rib
        else:
            ibp = ibp_spec.high
            merge = max(ibp_spec.low, ibp - self.MERGE_GAP)
        changes[P.SHUFFLE_INPUT_BUFFER_PERCENT] = ibp
        changes[P.SHUFFLE_MERGE_PERCENT] = P.PARAMETER_SPACE.spec(
            P.SHUFFLE_MERGE_PERCENT
        ).clamp(merge)
        changes[P.MERGE_INMEM_THRESHOLD] = 0.0
        # Drop no-op changes.
        return {
            k: v for k, v in changes.items() if abs(v - float(config[k])) > 1e-9
        }
