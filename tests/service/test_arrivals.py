"""Seeded statistical tests for the trace-driven arrival generator.

Determinism is digest-pinned (the same (tenants, jobs, seed) triple
must replay bit-identically forever); the statistics are checked on
large single-tenant traces where the law of large numbers makes the
tolerances safe for a *fixed* seed.
"""

import math

import pytest

from repro.service.arrivals import (
    ARRIVAL_PATTERNS,
    JobArrival,
    TenantSpec,
    arrivals_digest,
    generate_arrivals,
)
from repro.service.service import default_tenants
from tests.pins import check


class TestDeterminism:
    def test_pinned_digest(self):
        # The acceptance-scale trace: 3 default tenants x 70 jobs, seed 1
        # -- the exact stream `repro serve --backend sim` serves by default.
        arrivals = generate_arrivals(default_tenants(3), 70, seed=1)
        check("arrivals/3x70-seed1", arrivals_digest(arrivals))

    def test_same_seed_same_trace(self):
        a = generate_arrivals(default_tenants(3), 20, seed=7)
        b = generate_arrivals(default_tenants(3), 20, seed=7)
        assert a == b

    def test_different_seed_different_trace(self):
        a = generate_arrivals(default_tenants(3), 20, seed=1)
        b = generate_arrivals(default_tenants(3), 20, seed=2)
        assert arrivals_digest(a) != arrivals_digest(b)

    def test_tenant_streams_are_independent(self):
        """Adding a tenant never perturbs another tenant's stream."""
        both = generate_arrivals(default_tenants(2), 30, seed=5)
        alone = generate_arrivals(default_tenants(1), 30, seed=5)
        name = alone[0].tenant
        assert [a for a in both if a.tenant == name] == alone


class TestTraceShape:
    def test_sorted_and_uniquely_indexed(self):
        arrivals = generate_arrivals(default_tenants(3), 25, seed=3)
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        keys = {(a.tenant, a.index) for a in arrivals}
        assert len(keys) == len(arrivals) == 3 * 25
        # Per-tenant indices are 0..n-1 in time order.
        for tenant in {a.tenant for a in arrivals}:
            idx = [a.index for a in arrivals if a.tenant == tenant]
            assert sorted(idx) == list(range(25))

    def test_profiles_drawn_from_mix(self):
        tenants = default_tenants(3)
        arrivals = generate_arrivals(tenants, 40, seed=2)
        mixes = {t.name: set(t.profiles) for t in tenants}
        for a in arrivals:
            assert a.profile in mixes[a.tenant]

    def test_zero_jobs_is_empty(self):
        assert generate_arrivals(default_tenants(2), 0, seed=1) == []


class TestPoissonStatistics:
    def test_interarrival_mean_matches_rate(self):
        rate = 1.0 / 100.0
        spec = TenantSpec(name="solo", rate=rate, pattern="poisson")
        arrivals = generate_arrivals([spec], 2000, seed=11)
        gaps = [
            b.time - a.time for a, b in zip(arrivals, arrivals[1:])
        ] + [arrivals[0].time]
        mean = sum(gaps) / len(gaps)
        # Fixed seed, 2000 samples: the empirical mean of Exp(1/100)
        # sits well within 10% of 100.
        assert abs(mean - 1.0 / rate) / (1.0 / rate) < 0.10

    def test_interarrival_cv_is_exponential_like(self):
        """Exponential gaps have coefficient of variation ~= 1."""
        spec = TenantSpec(name="solo", rate=1.0 / 50.0, pattern="poisson")
        arrivals = generate_arrivals([spec], 2000, seed=13)
        gaps = [b.time - a.time for a, b in zip(arrivals, arrivals[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        cv = math.sqrt(var) / mean
        assert 0.85 < cv < 1.15


class TestDiurnalStatistics:
    def test_peaks_where_configured(self):
        """More arrivals land in the half-period around the peak."""
        period = 1000.0
        spec = TenantSpec(
            name="solo",
            rate=1.0 / 20.0,
            pattern="diurnal",
            peak_time=250.0,
            amplitude=0.9,
            period=period,
        )
        arrivals = generate_arrivals([spec], 3000, seed=17)
        near_peak = 0
        for a in arrivals:
            phase = (a.time - spec.peak_time) % period
            if phase < period / 4 or phase > 3 * period / 4:
                near_peak += 1
        off_peak = len(arrivals) - near_peak
        # With amplitude 0.9 the peak half carries ~4x the trough half's
        # integrated rate; 1.5x is a wide deterministic margin.
        assert near_peak > 1.5 * off_peak

    def test_moving_peak_moves_the_mass(self):
        period = 1000.0

        def mass_at(peak):
            spec = TenantSpec(
                name="solo",
                rate=1.0 / 20.0,
                pattern="diurnal",
                peak_time=peak,
                amplitude=0.9,
                period=period,
            )
            arrivals = generate_arrivals([spec], 2000, seed=19)
            return sum(
                1
                for a in arrivals
                if (a.time % period) < period / 4
                or (a.time % period) > 3 * period / 4
            )

        # Arrivals clustered near phase 0 when the peak is at 0; near
        # phase period/2 (so NOT near 0) when the peak moves there.
        assert mass_at(0.0) > mass_at(period / 2)

    def test_diurnal_mean_rate_close_to_base_rate(self):
        """The cosine modulation integrates to the base rate."""
        rate = 1.0 / 30.0
        spec = TenantSpec(
            name="solo",
            rate=rate,
            pattern="diurnal",
            amplitude=0.8,
            period=500.0,
        )
        arrivals = generate_arrivals([spec], 3000, seed=23)
        empirical = len(arrivals) / arrivals[-1].time
        assert abs(empirical - rate) / rate < 0.12


class TestValidation:
    def test_patterns_constant(self):
        assert ARRIVAL_PATTERNS == ("poisson", "diurnal")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"weight": 0.0},
            {"weight": -1.0},
            {"rate": 0.0},
            {"pattern": "bursty"},
            {"profiles": ()},
            {"profiles": ("no-such-profile",)},
            {"amplitude": 1.5},
            {"amplitude": -0.1},
            {"slo_seconds": 0.0},
            {"period": 0.0},
        ],
    )
    def test_bad_tenant_spec(self, kwargs):
        base = dict(name="t", profiles=("terasort",))
        base.update(kwargs)
        with pytest.raises(ValueError):
            TenantSpec(**base)

    def test_local_workload_profiles_accepted(self):
        spec = TenantSpec(name="t", profiles=("wordcount", "grep"))
        assert spec.profiles == ("wordcount", "grep")

    def test_duplicate_tenant_names_rejected(self):
        t = TenantSpec(name="dup", profiles=("bbp",))
        with pytest.raises(ValueError, match="duplicate"):
            generate_arrivals([t, t], 5, seed=1)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            generate_arrivals(default_tenants(1), -1, seed=1)

    def test_digest_sensitive_to_profile(self):
        a = JobArrival(time=1.0, tenant="t", index=0, profile="bbp")
        b = JobArrival(time=1.0, tenant="t", index=0, profile="terasort")
        assert arrivals_digest([a]) != arrivals_digest([b])
