"""The Equation-1 cost function.

    y = (1 - u_mem) + (1 - u_cpu) + n_spill / n_mapoutput + T / T_max

Lower is better: the formula rewards configurations that keep memory
and CPU busy, avoid spills, and finish fast relative to the slowest
task seen.  Failed attempts (OOM) receive a large fixed penalty so the
search steers away from infeasible regions -- the simulated analogue of
"over-utilizing resources ... increasing task execution time".
"""

from __future__ import annotations

from repro.monitor.statistics import ENVIRONMENTAL_KINDS, TaskStats

#: Cost assigned to a config-induced failure (OOM).  The worst feasible
#: cost is ~4 (all four terms at 1); failures must dominate that.
FAILURE_COST = 8.0

#: Gentler penalty for attempts the *environment* killed (preemption,
#: node loss, a faster speculative twin).  The configuration is not to
#: blame, but the lost work is real, so the sample is discouraged
#: without being branded infeasible.
ENV_FAILURE_COST = 5.0


def effective_duration(stats: TaskStats) -> float:
    """Duration with fetch-retry inflation discounted.

    Time an attempt spent in fetch backoff sleeps measures the
    network's health, not the configuration's quality; discounting it
    keeps flaky-link waves from branding good configs slow (the noisy-
    measurement guardrail).
    """
    return max(0.0, stats.duration - stats.fetch_penalty_seconds)


def task_cost(stats: TaskStats, t_max: float) -> float:
    """Equation 1 for one task, given the job's max task time so far."""
    if stats.failed:
        if stats.failure_kind in ENVIRONMENTAL_KINDS:
            return ENV_FAILURE_COST
        return FAILURE_COST
    t_term = effective_duration(stats) / t_max if t_max > 0 else 1.0
    return (
        (1.0 - stats.memory_utilization)
        + (1.0 - stats.cpu_utilization)
        + min(4.0, stats.spill_ratio)
        + min(1.5, t_term)
    )
