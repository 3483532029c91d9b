"""Edge cases for multi-tenancy, batch and service alike.

The degenerate shapes the ISSUE calls out: a tenant with nothing to
run, a single tenant (fair share collapses to FIFO), and a job mix of
one profile (every session after the first warm-starts).  The batch
multi-tenant experiment's own edges (empty seed list, case shapes,
memoization) ride along.
"""

from repro.experiments.multitenant import (
    ROLES,
    _experiment_cache,
    bbp_case,
    run_multitenant_over_seeds,
    terasort_60gb_case,
)
from repro.service import (
    FairShareDispatcher,
    ServiceConfig,
    TenantSpec,
    generate_arrivals,
    run_service,
)


class TestEmptyTenant:
    def test_tenant_with_no_work_never_dispatches(self):
        d = FairShareDispatcher(2)
        d.add_tenant("busy", 1.0)
        d.add_tenant("empty", 5.0)
        for j in range(5):
            d.enqueue("busy", j)
        order = []
        while True:
            pick = d.start_next()
            if pick is None:
                break
            order.append(pick[0])
            d.finish(pick[0])
        assert order == ["busy"] * 5  # finish-then-drain churns the queue dry
        assert d.dispatched("empty") == 0
        assert d.preemption_victim(exclude=("busy",)) is None

    def test_zero_job_service_run(self):
        report = run_service(
            ServiceConfig(
                tenants=(TenantSpec(name="t", profiles=("bbp",)),),
                jobs_per_tenant=0,
                seed=1,
            )
        )
        assert report.jobs_completed == 0
        assert report.makespan == 0.0
        assert report.throughput_jobs_per_sec == 0.0
        assert report.tuning == ()
        # The report still names the (idle) tenant and stays digestable.
        assert len(report.tenants) == 1
        assert report.tenants[0].jobs == 0
        assert report.digest() == run_service(
            ServiceConfig(
                tenants=(TenantSpec(name="t", profiles=("bbp",)),),
                jobs_per_tenant=0,
                seed=1,
            )
        ).digest()


class TestSingleTenantDegenerateFairShare:
    def _run(self, weight):
        tenants = (
            TenantSpec(
                name="solo",
                weight=weight,
                rate=1.0 / 200.0,
                profiles=("bbp", "wordcount-wikipedia"),
                slo_seconds=5000.0,
            ),
        )
        return run_service(
            ServiceConfig(
                tenants=tenants,
                jobs_per_tenant=4,
                seed=9,
                capacity=2,
                tuned=False,
            )
        )

    def test_weight_is_irrelevant_with_one_tenant(self):
        """Fair share over one tenant is FIFO; its weight changes nothing
        but the label in the report."""
        a = self._run(weight=1.0)
        b = self._run(weight=7.5)
        assert a.makespan == b.makespan
        assert a.p50_latency == b.p50_latency
        assert a.p95_latency == b.p95_latency
        assert a.tenants[0].mean_queue_delay == b.tenants[0].mean_queue_delay

    def test_single_tenant_dispatch_is_fifo(self):
        d = FairShareDispatcher(1)
        d.add_tenant("solo", 0.25)
        for j in range(6):
            d.enqueue("solo", j)
        got = []
        while True:
            pick = d.start_next()
            if pick is None:
                break
            got.append(pick[1])
            d.finish("solo")
        assert got == list(range(6))


class TestAllJobsSameProfile:
    def test_only_first_job_per_tenant_is_cold(self):
        tenants = tuple(
            TenantSpec(
                name=f"t{i}",
                rate=1.0 / 300.0,
                profiles=("bbp",),  # one profile: maximal KB reuse
                slo_seconds=1e6,
            )
            for i in range(2)
        )
        report = run_service(
            ServiceConfig(
                tenants=tenants,
                jobs_per_tenant=4,
                seed=5,
                capacity=1,  # strictly sequential: KB always populated
            )
        )
        assert report.jobs_completed == 8
        assert report.cold_sessions == len(tenants)
        assert report.warm_sessions == 8 - len(tenants)
        for record in report.tuning:
            assert record.warm_started == (record.index > 0)

    def test_same_profile_trace_is_single_profile(self):
        spec = TenantSpec(name="t", profiles=("terasort",))
        arrivals = generate_arrivals([spec], 20, seed=2)
        assert {a.profile for a in arrivals} == {"terasort"}


class TestBatchExperimentEdges:
    def test_empty_seed_list_is_a_no_op(self):
        before = dict(_experiment_cache)
        assert run_multitenant_over_seeds([]) == []
        assert _experiment_cache == before

    def test_case_shapes(self):
        ts = terasort_60gb_case()
        assert ts.dataset.num_blocks == 448
        assert ts.num_reducers == 200
        bbp = bbp_case()
        assert bbp.num_reducers == 1
        assert bbp.dataset.num_blocks == 100

    def test_roles_cover_both_apps_and_task_types(self):
        assert ROLES == ("Terasort-m", "Terasort-r", "BBP-m", "BBP-r")

    def test_cached_seeds_are_returned_without_rerun(self):
        sentinel = (object(), object())
        key = (999_999, None)
        _experiment_cache[key] = sentinel
        try:
            out = run_multitenant_over_seeds([999_999])
            assert out == [sentinel]
        finally:
            _experiment_cache.pop(key, None)
