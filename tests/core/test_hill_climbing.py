"""Tests for Algorithm 1, the gray-box smart hill climber."""

import numpy as np
import pytest

from repro.core import parameters as P
from repro.core.hill_climbing import (
    GrayBoxHillClimber,
    HillClimbSettings,
    SearchPhase,
)
from repro.core.neighborhood import Bounds, Neighborhood
from repro.core.parameters import PARAMETER_SPACE


def subspace():
    return PARAMETER_SPACE.subspace([P.IO_SORT_MB, P.SORT_SPILL_PERCENT])


def run_to_completion(climber, objective, max_batches=200):
    """Drive the async climber with a synchronous objective function."""
    batches = 0
    while not climber.finished:
        samples = climber.propose()
        if not samples:
            break
        for s in samples:
            climber.observe(s.sample_id, objective(s.point))
        batches += 1
        assert batches < max_batches, "climber failed to terminate"
    return batches


class TestSettings:
    def test_paper_defaults(self):
        st = HillClimbSettings()
        assert st.m == 24 and st.n == 16
        assert st.neighborhood_threshold == 0.1
        assert st.shrink_factor == 0.75
        assert st.global_search_limit == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"shrink_factor": 1.0},
            {"shrink_factor": 0.0},
            {"neighborhood_threshold": 0.0},
            {"global_search_limit": 0},
            {"replicas": 0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HillClimbSettings(**kwargs)


class TestProtocol:
    def test_first_batch_is_global_of_size_m(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        samples = climber.propose()
        assert len(samples) == 24
        assert all(s.phase is SearchPhase.GLOBAL for s in samples)

    def test_propose_is_stable_until_observed(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        a = climber.propose()
        b = climber.propose()
        assert [s.sample_id for s in a] == [s.sample_id for s in b]

    def test_partial_observation_keeps_batch_open(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        samples = climber.propose()
        climber.observe(samples[0].sample_id, 1.0)
        assert len(climber.pending_samples()) == len(samples) - 1
        assert climber.phase is SearchPhase.GLOBAL

    def test_full_observation_enters_local_phase(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        for s in climber.propose():
            climber.observe(s.sample_id, float(s.point[0]))
        assert climber.phase is SearchPhase.LOCAL
        local = climber.propose()
        # n fresh samples plus the re-evaluated incumbent.
        assert len(local) == 17
        assert sum(s.incumbent for s in local) == 1
        assert all(s.phase is SearchPhase.LOCAL for s in local)

    def test_incumbent_reevaluated_every_batch(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        for s in climber.propose():
            climber.observe(s.sample_id, float(s.point[0]))
        batch = climber.propose()
        incumbent = next(s for s in batch if s.incumbent)
        assert np.allclose(incumbent.point, climber.best_point())

    def test_unknown_sample_id_rejected(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        climber.propose()
        with pytest.raises(KeyError):
            climber.observe(999_999, 1.0)

    def test_replicas_require_multiple_observations(self):
        st = HillClimbSettings(replicas=2)
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0), st)
        samples = climber.propose()
        for s in samples:
            climber.observe(s.sample_id, 1.0)
        assert climber.phase is SearchPhase.GLOBAL  # still waiting
        for s in samples:
            climber.observe(s.sample_id, 1.0)
        assert climber.phase is SearchPhase.LOCAL


class TestConvergence:
    def test_converges_near_quadratic_optimum(self):
        target = np.array([0.7, 0.3])

        def objective(point):
            return float(np.sum((point - target) ** 2))

        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(42))
        run_to_completion(climber, objective)
        best = climber.best_point()
        assert np.linalg.norm(best - target) < 0.15

    def test_termination_after_g_failed_global_rounds(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        run_to_completion(climber, lambda p: float(np.sum(p)))
        assert climber.finished
        assert climber.global_rounds_without_improvement >= 5

    def test_shrink_on_no_improvement(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(1))
        # Constant objective: local search can never improve, so the
        # neighborhood must shrink by f each local batch.
        for s in climber.propose():
            climber.observe(s.sample_id, 1.0)
        size_before = climber.neighborhood.size
        for s in climber.propose():
            climber.observe(s.sample_id, 1.0)
        assert climber.neighborhood.size == pytest.approx(size_before * 0.75)

    def test_bounds_restrict_samples(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        climber.bounds.raise_lower(0, 0.8)
        for s in climber.propose():
            assert s.point[0] >= 0.8 - 1e-9

    def test_seed_point_injected_into_first_batch(self):
        seed = np.array([0.42, 0.77])
        climber = GrayBoxHillClimber(
            subspace(), np.random.default_rng(0), seed_point=seed
        )
        samples = climber.propose()
        assert any(np.allclose(s.point, seed) for s in samples)

    def test_uniform_sampling_mode(self):
        st = HillClimbSettings(use_lhs=False)
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0), st)
        samples = climber.propose()
        assert len(samples) == 24  # works end to end without LHS
        run_to_completion(climber, lambda p: float(np.sum(p**2)))
        assert climber.finished

    def test_lhs_beats_uniform_on_average(self):
        """The paper's property 3: LHS improves sampling quality.

        Measured as the best first-batch objective value over many seeds
        on a separable function; stratification covers each dimension's
        range, so LHS's expected minimum is lower.
        """
        target = np.array([0.9, 0.1])

        def objective(p):
            return float(np.sum(np.abs(p - target)))

        def best_first_batch(use_lhs, seed):
            st = HillClimbSettings(use_lhs=use_lhs)
            c = GrayBoxHillClimber(subspace(), np.random.default_rng(seed), st)
            return min(objective(s.point) for s in c.propose())

        lhs = np.mean([best_first_batch(True, s) for s in range(30)])
        uni = np.mean([best_first_batch(False, s) for s in range(30)])
        assert lhs <= uni * 1.05  # no worse, typically clearly better

    def test_best_config_decodes(self):
        climber = GrayBoxHillClimber(subspace(), np.random.default_rng(0))
        run_to_completion(climber, lambda p: float(p[0]))
        cfg = climber.best_config()
        # The objective rewards a small first coordinate => io.sort.mb low.
        assert cfg[P.IO_SORT_MB] <= 200


class TestNeighborhoodGeometry:
    def test_shrink_factor_validation(self):
        n = Neighborhood(np.array([0.5]), 0.4)
        with pytest.raises(ValueError):
            n.shrink(1.5)

    def test_recenter_restores_size(self):
        n = Neighborhood(np.array([0.5]), 0.1)
        n2 = n.recenter(np.array([0.2]), 0.5)
        assert n2.size == 0.5
        assert n2.center[0] == 0.2

    def test_sampling_bounds_clip_to_unit(self):
        b = Bounds(1)
        n = Neighborhood(np.array([0.05]), 0.4)
        (lo, hi), = n.sampling_bounds(b)
        assert lo == 0.0
        assert hi == pytest.approx(0.25)

    def test_sampling_bounds_respect_rule_bounds(self):
        b = Bounds(1)
        b.raise_lower(0, 0.6)
        n = Neighborhood(np.array([0.5]), 0.2)
        (lo, hi), = n.sampling_bounds(b)
        assert lo == pytest.approx(0.6)
        assert hi == pytest.approx(0.6)  # collapsed to the feasible edge

    def test_bounds_volume(self):
        b = Bounds(2)
        b.raise_lower(0, 0.5)
        assert b.volume() == pytest.approx(0.5)
