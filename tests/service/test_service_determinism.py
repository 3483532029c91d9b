"""Determinism gates for the service subsystem.

Two identical service runs must produce byte-identical warm-start
seeds and final reports -- whatever ran earlier in the process, because
report identity is (tenant, profile, arrival index), never a
process-global job id.  The three-arm experiment's combined digest is
additionally gated serial-vs-pool, and the legacy subsystem pins are
re-asserted here so a service-layer change that leaks into the kernel,
fault, or backend paths fails loudly in this suite too.
"""

from repro.experiments.service import run_service_experiment
from repro.service import ServiceConfig, default_tenants, run_service

#: Warm run, 3 default tenants x 4 jobs, seed 1 (the quick gate).
SERVICE_DIGEST_3X4_SEED1 = (
    "a1741bea0a9a6a5bf10c8f8e2bb09333d192d54ab59e573671396bd8db773d68"
)

# The pre-existing subsystem pins this PR must not move (asserted at
# the source in their own suites; re-pinned here as a tripwire).
LEGACY_KERNEL_DIGEST = (
    "db9d5a9d41e8f7ff8cdd25b6f8d1b687484a3f750e13a89c9f61b1dd7ad77fde"
)
LEGACY_FAULT_DIGEST = (
    "ccf9c4baf5b2ac219cf561bb6e04538866ba0589bc907c36f19323fe9c1074ab"
)
LEGACY_BACKEND_DIGEST = (
    "490cd13c2e8c104fa0ef753276ef6dbc38d0430a37442992f931e9256f8bfbdd"
)


def small_config(**overrides):
    kwargs = dict(
        tenants=default_tenants(3), jobs_per_tenant=4, seed=1
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


class TestRunDeterminism:
    def test_pinned_service_digest(self):
        report = run_service(small_config())
        assert report.digest() == SERVICE_DIGEST_3X4_SEED1

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


class TestLegacyPinsUnchanged:
    def test_kernel_pin_is_the_sealed_value(self):
        from tests.sim.test_kernel_equivalence import SEED_COMBINED_DIGEST

        assert SEED_COMBINED_DIGEST == LEGACY_KERNEL_DIGEST

    def test_fault_pin_is_the_sealed_value(self):
        from tests.faults.test_determinism import NETWORK_FAULT_DIGEST

        assert NETWORK_FAULT_DIGEST == LEGACY_FAULT_DIGEST

    def test_backend_pin_is_the_sealed_value(self):
        from tests.backends.test_protocol import SIM_BACKEND_DIGEST

        assert SIM_BACKEND_DIGEST == LEGACY_BACKEND_DIGEST
