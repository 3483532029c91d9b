"""The resilience experiment: job performance under injected faults.

Protocol: one fault-free run with the default configuration fixes the
*baseline* and the fault plan's time horizon.  Then, for each fault
level (``none``, ``low``, ``high``), the same job runs twice under the
injected scenario -- once with the default configuration and once
co-executed with the online tuner -- and the report compares job time,
recovery outcome (did re-execution/speculation keep the job
successful?), and the tuner's gain against the fault-free baseline.

Every run is described declaratively by a :class:`RunRequest`, so the
level pairs fan out over the process pool, and the report's combined
digest is bit-identical for any worker count (the CI gate's fault
case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.parallel import (
    RunOutcome,
    RunRequest,
    combined_digest,
    execute_request,
    fault_counts,
    run_requests,
)

#: Fault-scenario knobs per level (fed to ``generate_fault_plan``; the
#: ``horizon`` knob is added at run time from the measured baseline).
FAULT_LEVELS: Dict[str, Dict[str, float]] = {
    "none": {},
    "low": {"container_kills": 2, "degraded": 1},
    "high": {"crashes": 1, "container_kills": 4, "degraded": 2},
}

#: Failure kind (``TaskStats.failure_kind``) -> the fault kind that
#: causes it, for the per-kind failure breakdown.  ``oom`` stays
#: unattributed: it is config-induced, not injected.
FAILURE_TO_FAULT_KIND: Dict[str, str] = {
    "preempted": "container_kill/spot_preempt",
    "node_lost": "node_crash",
    "speculation": "degrade",
    "fetch_failure": "link_flaky/rack_partition/node_crash",
}


def levels_for_kinds(kinds: Tuple[str, ...]) -> Dict[str, Dict[str, float]]:
    """Build ``low``/``high`` knob dicts restricted to *kinds*.

    Low injects one fault of each selected kind; high injects two.
    Node-removing kinds (crashes, decommissions, spot preemptions) are
    capped at one each -- losing more nodes on a small test cluster
    starves the job rather than stressing recovery.
    """
    from repro.faults import KIND_TO_KNOB

    unknown = [k for k in kinds if k not in KIND_TO_KNOB]
    if unknown:
        raise ValueError(
            f"unknown fault kind(s) {unknown}, want a subset of {sorted(KIND_TO_KNOB)}"
        )
    removes_node = {"node_crash", "node_decommission", "spot_preempt"}
    low = {KIND_TO_KNOB[k]: 1 for k in kinds}
    high = {
        KIND_TO_KNOB[k]: (1 if k in removes_node else 2) for k in kinds
    }
    return {"none": {}, "low": low, "high": high}


@dataclass(frozen=True)
class ResilienceRow:
    """Default-vs-tuned outcomes for one fault level."""

    level: str
    default: RunOutcome
    tuned: RunOutcome

    @property
    def tuner_gain(self) -> float:
        """Fractional job-time gain of the tuned run at this fault level."""
        if self.default.job_time <= 0:
            return 0.0
        return (self.default.job_time - self.tuned.job_time) / self.default.job_time

    def slowdown_vs(self, baseline: RunOutcome) -> float:
        """Fault-induced slowdown of the default run vs the fault-free one."""
        if baseline.job_time <= 0:
            return 0.0
        return (self.default.job_time - baseline.job_time) / baseline.job_time

    @property
    def failures_by_fault_kind(self) -> Tuple[Tuple[str, int], ...]:
        """The default run's failures attributed to injected fault kinds.

        Keys are ``"<failure_kind> (<fault kind>)"``; failure kinds
        without an injected cause (``oom``, bare ``failed``) pass
        through unattributed.
        """
        out: Dict[str, int] = {}
        for reason, count in self.default.failure_reasons:
            fault = FAILURE_TO_FAULT_KIND.get(reason)
            key = f"{reason} ({fault})" if fault else reason
            out[key] = out.get(key, 0) + int(count)
        return tuple(sorted(out.items()))


@dataclass(frozen=True)
class ResilienceReport:
    """Everything the ``faults`` subcommand prints."""

    case_name: str
    seed: int
    tuning: str
    baseline: RunOutcome
    rows: Tuple[ResilienceRow, ...]
    digest: str
    #: Serialized fault plan per non-``none`` level (``plan_to_json``
    #: form) -- written out by ``repro faults --plan-json`` and fed back
    #: through a ``("plan", json)`` request for an exact replay.
    plans_json: Tuple[Tuple[str, str], ...] = ()


def run_fault_experiment(
    case_name: str = "terasort",
    seed: int = 1,
    levels: Tuple[str, ...] = ("none", "low", "high"),
    tuning: str = "conservative",
    num_blocks: Optional[int] = None,
    num_reducers: Optional[int] = None,
    max_workers: Optional[int] = None,
    kinds: Optional[Tuple[str, ...]] = None,
    plan_json: Optional[str] = None,
) -> ResilienceReport:
    """Run the full resilience protocol for one case and seed.

    *kinds* restricts the generated scenarios to the named fault kinds
    (see :data:`repro.faults.KIND_TO_KNOB`); without it the legacy node/container
    levels in :data:`FAULT_LEVELS` apply.  *plan_json* bypasses
    generation entirely: the serialized plan replays verbatim at every
    non-``none`` level (the ``--plan-json`` round-trip).
    """
    fault_levels = FAULT_LEVELS if kinds is None else levels_for_kinds(kinds)
    unknown = [lv for lv in levels if lv not in fault_levels]
    if unknown:
        raise ValueError(
            f"unknown fault level(s) {unknown}, want a subset of {sorted(fault_levels)}"
        )

    def request(tuning_mode: str, level: str) -> RunRequest:
        knobs = fault_levels[level]
        if not knobs:
            return RunRequest.build(
                case_name,
                seed,
                tuning=tuning_mode,
                num_blocks=num_blocks,
                num_reducers=num_reducers,
            )
        if plan_json is not None:
            faults: Dict[str, object] = {"plan": plan_json}
        else:
            faults = {**knobs, "horizon": horizon}
        return RunRequest.build(
            case_name,
            seed,
            tuning=tuning_mode,
            num_blocks=num_blocks,
            num_reducers=num_reducers,
            faults=faults,
        )

    # The fault-free default run doubles as the baseline and as the
    # "none" level's default arm; its duration sets the plan horizon.
    horizon = 1.0  # placeholder so request() can close over it
    baseline = execute_request(request("none", "none"))
    horizon = max(baseline.job_time, 1.0)

    requests: List[RunRequest] = []
    for level in levels:
        if level != "none":
            requests.append(request("none", level))
        requests.append(request(tuning, level))
    outcomes = run_requests(requests, max_workers=max_workers)

    rows: List[ResilienceRow] = []
    cursor = 0
    for level in levels:
        if level == "none":
            default = baseline
        else:
            default = outcomes[cursor]
            cursor += 1
        tuned = outcomes[cursor]
        cursor += 1
        rows.append(ResilienceRow(level=level, default=default, tuned=tuned))

    return ResilienceReport(
        case_name=case_name,
        seed=seed,
        tuning=tuning,
        baseline=baseline,
        rows=tuple(rows),
        digest=combined_digest([baseline] + list(outcomes)),
        plans_json=_level_plans(fault_levels, levels, seed, horizon, plan_json),
    )


def _level_plans(
    fault_levels: Dict[str, Dict[str, float]],
    levels: Tuple[str, ...],
    seed: int,
    horizon: float,
    plan_json: Optional[str],
) -> Tuple[Tuple[str, str], ...]:
    """Serialized plan per faulted level (what each worker replayed).

    Workers draw their plan from a fresh ``RngRegistry(seed)``'s
    ``("faults", "plan")`` stream against the default 18-slave cluster,
    so regenerating with the same inputs here reproduces the exact plan
    without another simulation run.
    """
    from repro.cluster.topology import ClusterSpec
    from repro.faults import generate_fault_plan, plan_to_json
    from repro.sim.rng import RngRegistry

    out: List[Tuple[str, str]] = []
    num_nodes = ClusterSpec().num_slaves
    for level in levels:
        knobs = fault_levels[level]
        if not knobs:
            continue
        if plan_json is not None:
            out.append((level, plan_json))
            continue
        plan = generate_fault_plan(
            RngRegistry(seed).stream("faults", "plan"),
            num_nodes=num_nodes,
            horizon=horizon,
            **fault_counts(knobs),
        )
        out.append((level, plan_to_json(plan)))
    return tuple(out)
