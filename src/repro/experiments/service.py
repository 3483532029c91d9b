"""The service experiment: warm vs cold vs default, one trace.

Three arms over the *same* seeded arrival trace:

* **warm** -- tuned, searches seeded from each tenant's knowledge base;
* **cold** -- tuned, every search starts from scratch
  (``warm_start=False``);
* **default** -- untuned, every job runs its stock configuration.

Warm vs cold isolates the value of cross-job knowledge (fewer waves to
the best cost); tuned vs default isolates the value of tuning at all
(per-profile execution-time deltas under identical contention).  Arms
are independent seeded simulations, so they fan out over the process
pool with bit-identical results -- :attr:`combined_digest` is the
serial-vs-pool CI gate for the subsystem.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from repro.experiments.parallel import map_seeds
from repro.service.report import ServiceReport
from repro.service.service import ServiceConfig, default_tenants, run_service

#: Arm indices for the pool fan-out (stable, digest-visible order).
ARMS: Tuple[str, ...] = ("warm", "cold", "default")


def _arm_config(
    arm: str,
    seed: int,
    num_tenants: int,
    jobs_per_tenant: int,
    capacity: int,
    rate: float,
) -> ServiceConfig:
    return ServiceConfig(
        tenants=default_tenants(num_tenants, rate=rate),
        jobs_per_tenant=jobs_per_tenant,
        seed=seed,
        capacity=capacity,
        tuned=(arm != "default"),
        warm_start=(arm == "warm"),
    )


def _run_arm(
    arm_index: int,
    seed: int = 1,
    num_tenants: int = 3,
    jobs_per_tenant: int = 10,
    capacity: int = 3,
    rate: float = 1.0 / 400.0,
) -> ServiceReport:
    """Top-level (hence picklable) worker for one experiment arm."""
    config = _arm_config(
        ARMS[arm_index], seed, num_tenants, jobs_per_tenant, capacity, rate
    )
    return run_service(config)


@dataclass(frozen=True)
class ServiceExperimentResult:
    """All three arms plus the headline comparisons."""

    seed: int
    warm: ServiceReport
    cold: ServiceReport
    default: ServiceReport
    #: profile -> (default mean execution - warm mean execution) /
    #: default mean execution; positive = tuning helped.
    tuned_vs_default: Tuple[Tuple[str, float], ...]

    @property
    def combined_digest(self) -> str:
        h = hashlib.sha256()
        for report in (self.warm, self.cold, self.default):
            h.update(report.digest().encode())
        return h.hexdigest()

    def render(self) -> str:
        lines = [
            f"service experiment (seed={self.seed})",
            f"  warm arm: {self.warm.warm_sessions} warm / "
            f"{self.warm.cold_sessions} cold sessions, "
            f"mean wave_of_best={self.warm.warm_mean_wave_of_best:.3f} (warm)",
            f"  cold arm: mean wave_of_best={self.cold.cold_mean_wave_of_best:.3f}",
            f"  p95 latency: warm={self.warm.p95_latency:.1f} "
            f"cold={self.cold.p95_latency:.1f} default={self.default.p95_latency:.1f}",
        ]
        for profile, delta in self.tuned_vs_default:
            lines.append(f"  tuned-vs-default {profile}: {delta:+.2%}")
        lines.append(f"  combined digest: {self.combined_digest}")
        return "\n".join(lines) + "\n"


def run_service_experiment(
    seed: int = 1,
    num_tenants: int = 3,
    jobs_per_tenant: int = 10,
    capacity: int = 3,
    rate: float = 1.0 / 400.0,
    max_workers: Optional[int] = None,
) -> ServiceExperimentResult:
    """Run all three arms, fanned out over the process pool.

    ``max_workers=1`` runs them in-process, one after another.
    """
    worker = partial(
        _run_arm,
        seed=seed,
        num_tenants=num_tenants,
        jobs_per_tenant=jobs_per_tenant,
        capacity=capacity,
        rate=rate,
    )
    warm, cold, default = map_seeds(
        worker, list(range(len(ARMS))), max_workers=max_workers
    )
    default_exec: Dict[str, float] = dict(default.profile_mean_execution)
    deltas = []
    for profile, tuned_mean in warm.profile_mean_execution:
        base = default_exec.get(profile)
        if base and base > 0:
            deltas.append((profile, (base - tuned_mean) / base))
    return ServiceExperimentResult(
        seed=seed,
        warm=warm,
        cold=cold,
        default=default,
        tuned_vs_default=tuple(deltas),
    )
