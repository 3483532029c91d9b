"""Nightly steady-state case for the multi-tenant tuning service.

Not a paper figure: the acceptance-scale service trace (3 tenants,
210 Poisson/diurnal arrivals, warm-started tuning) timed end to end.
The simulated-time service metrics (jobs/sec, p95 latency, SLO
attainment) land in ``benchmarks/results/BENCH_service.json`` next to
the measured wall time, so nightly runs expose both simulator-cost
trends and service-quality trends in one record.

Assertions only guard sanity plus the pinned report digest (the
``service/3x70-seed1`` pin of ``tests/pins.json``, which
``tests/service/test_service.py`` checks too): if the digest moves here
but not there, the bench and test environments diverged.
"""

import time

from repro.backends.sim import SimBackend
from repro.service import ServiceConfig, default_tenants, run_service

from benchmarks.bench_common import record_bench, run_once

from tests.pins import check

NUM_TENANTS = 3
JOBS_PER_TENANT = 70
SEED = 1


def test_service_steadystate(benchmark):
    backend = SimBackend(seed=SEED, scheduler="fair")
    config = ServiceConfig(
        tenants=default_tenants(NUM_TENANTS),
        jobs_per_tenant=JOBS_PER_TENANT,
        seed=SEED,
    )

    t0 = time.perf_counter()
    report = run_once(benchmark, lambda: run_service(config, backend=backend))
    wall = time.perf_counter() - t0

    assert report.jobs_completed == NUM_TENANTS * JOBS_PER_TENANT
    check("service/3x70-seed1", report.digest())
    assert report.throughput_jobs_per_sec > 0

    record_bench(
        "service",
        wall,
        events_executed=backend.cluster.sim.events_executed,
        extra={
            "jobs_completed": report.jobs_completed,
            "jobs_per_sec": round(report.throughput_jobs_per_sec, 6),
            "p50_latency_s": round(report.p50_latency, 3),
            "p95_latency_s": round(report.p95_latency, 3),
            "slo_attainment": round(report.slo_attainment, 4),
            "preemptions": report.preemptions,
            "warm_sessions": report.warm_sessions,
            "cold_sessions": report.cold_sessions,
        },
    )
