"""End-to-end service-loop tests: small runs, telemetry, preemption,
the local-backend smoke, and the acceptance-scale warm-vs-cold gate.
"""

import pytest

from repro.backends.sim import SimBackend
from repro.service import (
    ServiceConfig,
    TenantSpec,
    default_tenants,
    percentile,
    run_service,
    run_service_local,
)
from tests.pins import check


class TestSmallRun:
    @pytest.fixture(scope="class")
    def report(self):
        return run_service(
            ServiceConfig(tenants=default_tenants(3), jobs_per_tenant=4, seed=1)
        )

    def test_all_jobs_complete(self, report):
        assert report.jobs_completed == 3 * 4
        assert sum(t.jobs for t in report.tenants) == 12

    def test_steady_state_metrics_sane(self, report):
        assert report.makespan > 0
        assert report.throughput_jobs_per_sec > 0
        assert 0 < report.p50_latency <= report.p95_latency
        assert 0.0 <= report.slo_attainment <= 1.0
        for t in report.tenants:
            assert t.p50_latency <= t.p95_latency
            assert t.mean_queue_delay >= 0

    def test_every_tuned_job_has_a_session_record(self, report):
        assert len(report.tuning) == report.jobs_completed
        assert report.warm_sessions + report.cold_sessions == len(report.tuning)

    def test_untuned_run_has_no_sessions(self):
        report = run_service(
            ServiceConfig(
                tenants=default_tenants(2),
                jobs_per_tenant=2,
                seed=1,
                tuned=False,
            )
        )
        assert report.tuning == ()
        assert report.jobs_completed == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(tenants=())
        with pytest.raises(ValueError):
            ServiceConfig(tenants=default_tenants(1), capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(tenants=default_tenants(1), jobs_per_tenant=-1)
        with pytest.raises(ValueError):
            ServiceConfig(tenants=default_tenants(1), preempt_after=-5.0)
        with pytest.raises(ValueError):
            ServiceConfig(tenants=default_tenants(1), preempt_weight_factor=0.0)


class TestTelemetry:
    def test_service_events_emitted(self):
        from repro.telemetry.events import (
            ServiceJobCompleted,
            ServiceJobDispatched,
            ServiceJobQueued,
            ServiceSteadyState,
        )

        backend = SimBackend(seed=1, scheduler="fair")
        events = []
        backend.cluster.telemetry.subscribe(events.append, categories=("service",))
        report = run_service(
            ServiceConfig(tenants=default_tenants(2), jobs_per_tenant=2, seed=1),
            backend=backend,
        )
        queued = [e for e in events if isinstance(e, ServiceJobQueued)]
        dispatched = [e for e in events if isinstance(e, ServiceJobDispatched)]
        completed = [e for e in events if isinstance(e, ServiceJobCompleted)]
        steady = [e for e in events if isinstance(e, ServiceSteadyState)]
        assert len(queued) == len(dispatched) == len(completed) == 4
        assert len(steady) == 1
        assert steady[0].jobs_completed == report.jobs_completed
        assert steady[0].preemptions == report.preemptions
        counters = backend.cluster.telemetry.counters
        assert counters.get("service.queued") == 4
        assert counters.get("service.completed") == 4

    def test_no_service_events_without_subscriber(self):
        backend = SimBackend(seed=1, scheduler="fair")
        other = []
        backend.cluster.telemetry.subscribe(other.append, categories=("tuner",))
        assert not backend.cluster.telemetry.wants("service")
        run_service(
            ServiceConfig(tenants=default_tenants(1), jobs_per_tenant=1, seed=1),
            backend=backend,
        )


class TestPreemption:
    def test_starved_head_of_queue_preempts(self):
        from repro.telemetry.events import ServicePreemption

        tenants = (
            TenantSpec(
                name="heavy",
                weight=1.0,
                rate=1.0 / 5.0,
                profiles=("terasort",),
                slo_seconds=1e6,
            ),
            TenantSpec(
                name="light",
                weight=4.0,
                rate=1.0 / 5.0,
                profiles=("bbp",),
                slo_seconds=1e6,
            ),
        )
        backend = SimBackend(seed=3, scheduler="fair")
        events = []
        backend.cluster.telemetry.subscribe(events.append, categories=("service",))
        report = run_service(
            ServiceConfig(
                tenants=tenants,
                jobs_per_tenant=2,
                seed=3,
                capacity=1,
                tuned=False,
                preempt_after=20.0,
            ),
            backend=backend,
        )
        assert report.jobs_completed == 4
        assert report.preemptions >= 1
        preempt_events = [e for e in events if isinstance(e, ServicePreemption)]
        assert len(preempt_events) == report.preemptions
        for e in preempt_events:
            assert e.waited >= 20.0
            assert e.victim_tenant != e.tenant

    def test_preemption_disabled_with_none(self):
        report = run_service(
            ServiceConfig(
                tenants=default_tenants(2),
                jobs_per_tenant=2,
                seed=1,
                capacity=1,
                tuned=False,
                preempt_after=None,
            )
        )
        assert report.preemptions == 0


class TestAcceptance:
    """The ISSUE's headline gate: a >=200-job stream over >=3 tenants,
    with warm starts reaching the best cost in fewer waves than cold."""

    @pytest.fixture(scope="class")
    def warm(self):
        return run_service(
            ServiceConfig(tenants=default_tenants(3), jobs_per_tenant=70, seed=1)
        )

    @pytest.fixture(scope="class")
    def cold(self):
        return run_service(
            ServiceConfig(
                tenants=default_tenants(3),
                jobs_per_tenant=70,
                seed=1,
                warm_start=False,
            )
        )

    def test_stream_scale(self, warm):
        assert warm.jobs_completed == 210 >= 200
        assert len(warm.tenants) == 3
        # Exactly what `repro serve --backend sim` serves by default.
        check("service/3x70-seed1", warm.digest())

    def test_warm_starts_dominate_steady_state(self, warm):
        # After the first job of each (tenant, profile, size) key, every
        # session seeds from the tenant knowledge base.
        assert warm.warm_sessions > 10 * warm.cold_sessions

    def test_warm_reaches_best_in_fewer_waves_than_cold_arm(self, warm, cold):
        assert cold.warm_sessions == 0
        assert warm.warm_sessions > 0
        assert warm.warm_mean_wave_of_best < cold.cold_mean_wave_of_best

    def test_warm_cost_no_worse_than_cold_arm(self, warm, cold):
        assert warm.warm_mean_best_cost <= cold.cold_mean_best_cost

    def test_within_run_warm_vs_cold(self, warm):
        # Even inside the warm arm, the (few) cold first-of-key sessions
        # need at least as many waves on average as the warm rest.
        assert warm.warm_mean_wave_of_best <= warm.cold_mean_wave_of_best


class TestLocalBackendSmoke:
    def test_service_loop_on_real_processes(self):
        tenants = (
            TenantSpec(
                name="solo",
                rate=1.0 / 2.0,
                profiles=("wordcount",),
                slo_seconds=600.0,
            ),
        )
        report = run_service_local(
            ServiceConfig(
                tenants=tenants,
                jobs_per_tenant=2,
                seed=1,
                capacity=1,
            ),
            num_splits=2,
            split_kb=4,
            num_reducers=1,
        )
        assert report.backend == "local"
        assert report.jobs_completed == 2
        assert len(report.tuning) == 2
        # Same tenant, same workload, same input: the second session
        # warm-starts from the first one's best config.
        assert report.tuning[0].warm_started is False
        assert report.tuning[1].warm_started is True
        assert all(j.p50_latency > 0 for j in report.tenants)


class TestPercentile:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 95) == 40.0
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile([], 50) == 0.0

    def test_bad_quantile(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
