"""Determinism gates for the service subsystem.

Two identical service runs must produce byte-identical warm-start
seeds and final reports -- whatever ran earlier in the process, because
report identity is (tenant, profile, arrival index), never a
process-global job id.  The three-arm experiment's combined digest is
additionally gated serial-vs-pool.
"""

from repro.experiments.service import run_service_experiment
from repro.service import ServiceConfig, default_tenants, run_service
from tests.pins import check


def small_config(**overrides):
    kwargs = dict(
        tenants=default_tenants(3), jobs_per_tenant=4, seed=1
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


class TestRunDeterminism:
    def test_pinned_service_digest(self):
        # Warm run, 3 default tenants x 4 jobs, seed 1 (the quick gate).
        report = run_service(small_config())
        check("service/3x4-seed1", report.digest())

    def test_identical_runs_byte_identical(self):
        a = run_service(small_config())
        b = run_service(small_config())
        assert a.render() == b.render()
        assert a.digest() == b.digest()

    def test_identical_runs_same_warm_start_seeds(self):
        """The knowledge-base seed configs replay bit-identically."""
        a = run_service(small_config())
        b = run_service(small_config())
        seeds_a = [
            (r.tenant, r.profile, r.index, r.warm_started, r.seed_config)
            for r in a.tuning
        ]
        seeds_b = [
            (r.tenant, r.profile, r.index, r.warm_started, r.seed_config)
            for r in b.tuning
        ]
        assert seeds_a == seeds_b
        assert any(r.warm_started for r in a.tuning), (
            "expected at least one warm-started session in the gate run"
        )

    def test_seed_changes_digest(self):
        a = run_service(small_config(seed=1))
        b = run_service(small_config(seed=2))
        assert a.digest() != b.digest()

    def test_warm_start_flag_changes_digest(self):
        warm = run_service(small_config())
        cold = run_service(small_config(warm_start=False))
        assert warm.digest() != cold.digest()
        assert cold.warm_sessions == 0


class TestSerialVsPool:
    def test_combined_digest_serial_equals_pool(self):
        serial = run_service_experiment(jobs_per_tenant=4, max_workers=1)
        pooled = run_service_experiment(jobs_per_tenant=4, max_workers=3)
        assert serial.combined_digest == pooled.combined_digest
        assert serial.warm.render() == pooled.warm.render()
        assert serial.default.render() == pooled.default.render()
