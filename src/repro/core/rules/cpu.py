"""CPU tuning rules (Section 6.3).

* vcores: allocate enough CPU without hurting cluster utilization --
  bump by 1 while the container runs CPU-saturated and task times keep
  improving;
* ``shuffle.parallelcopies``: increase in increments of 10 until task
  time stops improving;
* ``io.sort.factor``: increase by 20 until no further improvement.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core import parameters as P
from repro.core.configuration import Configuration
from repro.core.rules.base import RuleContext, TuningRule
from repro.mapreduce.jobspec import TaskType

CPU_SATURATED = 0.90
CPU_IDLE = 0.30
PERCENTILE = 80


def _vcore_param(task_type: TaskType) -> str:
    return P.MAP_CPU_VCORES if task_type is TaskType.MAP else P.REDUCE_CPU_VCORES


class _IncrementalRule(TuningRule):
    """Shared machinery: bump a parameter while task times improve."""

    param = ""
    increment = 1.0
    #: Required relative improvement to keep pushing.
    min_gain = 0.02

    def applies(self, ctx: RuleContext) -> bool:
        return True

    def conservative_update(
        self, ctx: RuleContext, config: Configuration
    ) -> Dict[str, float]:
        if not self.applies(ctx):
            return {}
        ok = ctx.ok_window()
        if not ok:
            return {}
        mean_t = ctx.mean(s.duration for s in ok)
        memo_t = f"{self.name}.last_duration"
        memo_stop = f"{self.name}.stopped"
        if ctx.memo.get(memo_stop):
            return {}
        last = ctx.memo.get(memo_t)
        if last is not None and mean_t > float(last) * (1.0 - self.min_gain):
            # No further improvement: stop pushing (and back off once).
            ctx.memo[memo_stop] = True
            return {}
        ctx.memo[memo_t] = mean_t
        spec = P.PARAMETER_SPACE.spec(self.param)
        target = spec.clamp(float(config[self.param]) + self.increment)
        if target <= float(config[self.param]):
            return {}
        return {self.param: float(target)}


class VcoreRule(TuningRule):
    """Bump vcores while the container is CPU-saturated (Section 6.3)."""

    name = "vcores"

    def adjust_bounds(self, ctx: RuleContext) -> List[str]:
        param = _vcore_param(ctx.task_type)
        dim = ctx.dim(param)
        if dim is None:
            return []
        ok = ctx.ok_window()
        sampled = ctx.sampled_values(param)
        if not ok or not sampled:
            return []
        notes: List[str] = []
        util = float(np.percentile([s.cpu_utilization for s in ok], PERCENTILE))
        pct = float(np.percentile(sampled, PERCENTILE))
        if util >= CPU_SATURATED:
            ctx.bounds.raise_lower(dim, ctx.encode(param, pct))
            notes.append(f"{param}: cpu p80={util:.2f} saturated; lower bound -> {pct:.0f}")
        elif util <= CPU_IDLE:
            ctx.bounds.lower_upper(dim, ctx.encode(param, max(1.0, pct)))
            notes.append(f"{param}: cpu p80={util:.2f} idle; upper bound -> {pct:.0f}")
        return notes

    def conservative_update(
        self, ctx: RuleContext, config: Configuration
    ) -> Dict[str, float]:
        param = _vcore_param(ctx.task_type)
        ok = ctx.ok_window()
        if not ok:
            return {}
        mean_util = ctx.mean(s.cpu_utilization for s in ok)
        mean_t = ctx.mean(s.duration for s in ok)
        memo_t = "vcores.last_duration"
        last = ctx.memo.get(memo_t)
        spec = P.PARAMETER_SPACE.spec(param)
        current = float(config[param])
        if mean_util >= CPU_SATURATED:
            # Keep increasing while execution time improves.
            if last is None or mean_t < float(last) * 0.98 or current == spec.low:
                ctx.memo[memo_t] = mean_t
                target = spec.clamp(current + 1)
                if target > current:
                    return {param: float(target)}
        elif mean_util <= CPU_IDLE and current > spec.low:
            # Idle CPUs are better given to other containers.
            ctx.memo[memo_t] = mean_t
            return {param: float(spec.clamp(current - 1))}
        return {}


class ParallelCopiesRule(_IncrementalRule):
    """Raise shuffle concurrency in steps of 10 while it helps."""

    name = "parallelcopies"
    param = P.SHUFFLE_PARALLELCOPIES
    increment = 10.0

    def applies(self, ctx: RuleContext) -> bool:
        return ctx.task_type is TaskType.REDUCE


class SortFactorRule(_IncrementalRule):
    """Raise the merge fan-in in steps of 20 while it helps."""

    name = "sort-factor"
    param = P.IO_SORT_FACTOR
    increment = 20.0

    def applies(self, ctx: RuleContext) -> bool:
        # The fan-in matters on both sides; tune it where merges happen.
        return True
