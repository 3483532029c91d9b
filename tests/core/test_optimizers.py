"""Tests for the pluggable optimizer backends and their shared protocol.

Covers the backend registry/factory, protocol conformance and
determinism for every backend, and the edge cases the online tuner
leans on: empty waves, all-infeasible proposals, rollback without a
known-good configuration, and SPSA perturbations pinned against
parameter bounds.
"""

import numpy as np
import pytest

from repro.core import parameters as P
from repro.core.cost import FAILURE_COST
from repro.core.hill_climbing import GrayBoxHillClimber, HillClimbSettings
from repro.core.optimizers import (
    DEFAULT_OPTIMIZER,
    OPTIMIZER_BACKENDS,
    Optimizer,
    Sample,
    SearchPhase,
    WaveOptimizer,
    make_optimizer,
)
from repro.core.optimizers.lhs import PureLhsOptimizer
from repro.core.optimizers.random_search import (
    RandomSearchOptimizer,
    RandomSearchSettings,
)
from repro.core.optimizers.spsa import SpsaOptimizer, SpsaSettings
from repro.core.parameters import PARAMETER_SPACE

BACKEND_CLASSES = {
    "hill_climb": GrayBoxHillClimber,
    "spsa": SpsaOptimizer,
    "random": RandomSearchOptimizer,
    "lhs": PureLhsOptimizer,
}

#: Small-budget settings so every backend terminates in a few waves.
SMALL_SETTINGS = {
    "hill_climb": HillClimbSettings(m=6, n=4, global_search_limit=2),
    "spsa": SpsaSettings(pairs=1, iterations=4, patience=2),
    "random": RandomSearchSettings(wave_size=6, patience=2, max_waves=5),
    "lhs": RandomSearchSettings(wave_size=6, patience=2, max_waves=5),
}


def subspace():
    return PARAMETER_SPACE.subspace([P.IO_SORT_MB, P.SORT_SPILL_PERCENT])


def make(backend, seed=7, settings=None, seed_point=None):
    return make_optimizer(
        backend,
        subspace(),
        np.random.default_rng(seed),
        settings if settings is not None else SMALL_SETTINGS[backend],
        seed_point=seed_point,
    )


def drive(opt, objective, max_batches=300):
    """Drive an async optimizer to termination with a sync objective."""
    batches = 0
    while not opt.finished:
        samples = opt.propose()
        if not samples:
            break
        for s in opt.pending_samples():
            opt.observe(s.sample_id, objective(s.point))
        batches += 1
        assert batches < max_batches, "optimizer failed to terminate"
    return batches


def bowl(point):
    return float(np.sum((point - 0.4) ** 2))


class TestRegistry:
    def test_registry_names(self):
        assert OPTIMIZER_BACKENDS == ("hill_climb", "spsa", "random", "lhs")
        assert DEFAULT_OPTIMIZER == "hill_climb"

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_factory_builds_expected_class(self, backend):
        opt = make(backend)
        assert type(opt) is BACKEND_CLASSES[backend]
        assert isinstance(opt, Optimizer)
        assert isinstance(opt, WaveOptimizer)

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_factory_default_settings(self, backend):
        opt = make_optimizer(backend, subspace(), np.random.default_rng(0))
        assert not opt.finished

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer backend"):
            make_optimizer("bayesian", subspace(), np.random.default_rng(0))

    def test_mismatched_settings_rejected(self):
        with pytest.raises(TypeError, match="expects SpsaSettings"):
            make_optimizer(
                "spsa", subspace(), np.random.default_rng(0), HillClimbSettings()
            )


class TestProtocolConformance:
    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_terminates_and_scores(self, backend):
        opt = make(backend)
        drive(opt, bowl)
        assert opt.finished
        assert opt.best_cost() is not None
        assert opt.best_point() is not None
        assert opt.samples_proposed > 0
        assert opt.observations >= opt.samples_proposed
        config = opt.best_config()
        for name in opt.space.names:
            assert name in config.as_dict()

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_same_rng_seed_is_deterministic(self, backend):
        a, b = make(backend, seed=11), make(backend, seed=11)
        drive(a, bowl)
        drive(b, bowl)
        assert a.best_cost() == b.best_cost()
        assert np.array_equal(a.best_point(), b.best_point())
        assert a.samples_proposed == b.samples_proposed

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_cost_trajectory_is_monotone(self, backend):
        opt = make(backend)
        drive(opt, bowl)
        costs = [c for _n, c in opt.cost_trajectory]
        assert costs, "no trajectory checkpoints recorded"
        assert costs == sorted(costs, reverse=True)
        observations = [n for n, _c in opt.cost_trajectory]
        assert observations == sorted(observations)

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_samples_stay_inside_bounds(self, backend):
        opt = make(backend)
        lo, hi = opt.bounds.lo.copy(), opt.bounds.hi.copy()
        for _ in range(3):
            samples = opt.propose()
            if not samples:
                break
            for s in samples:
                assert np.all(s.point >= lo - 1e-12)
                assert np.all(s.point <= hi + 1e-12)
                opt.observe(s.sample_id, bowl(s.point))

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_unknown_sample_id_raises(self, backend):
        opt = make(backend)
        opt.propose()
        with pytest.raises(KeyError):
            opt.observe(999_999_999, 1.0)


class TestEdgeCases:
    def test_empty_wave_terminates_search(self):
        class Exhausted(RandomSearchOptimizer):
            def _make_batch(self):
                return []

        opt = Exhausted(subspace(), np.random.default_rng(0))
        assert opt.propose() == []
        assert opt.finished
        assert opt.best_cost() is None
        # Termination is sticky: later proposes stay empty.
        assert opt.propose() == []

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_all_infeasible_wave_advances_search(self, backend):
        # The tuner auto-prices samples in known-infeasible regions at
        # FAILURE_COST; a wave where *every* sample is priced that way
        # must still advance (or finish) rather than wedge the search.
        opt = make(backend)
        drive(opt, lambda point: FAILURE_COST)
        assert opt.finished
        assert opt.best_cost() == FAILURE_COST

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_rollback_without_known_good_config(self, backend):
        opt = make(backend)
        # Nothing proposed yet: no batch, no incumbent.
        assert opt.rollback() is False
        samples = opt.propose()
        assert samples
        # Wave in flight but never observed: still no known-good point.
        assert opt.rollback() is False
        assert opt.pending_samples() == samples

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_rollback_with_incumbent_voids_wave(self, backend):
        opt = make(backend)
        for s in opt.propose():
            opt.observe(s.sample_id, bowl(s.point))
        if opt.finished:  # a one-wave budget cannot roll back
            pytest.skip("backend finished within one wave")
        second = opt.propose()
        opt.observe(second[0].sample_id, 0.5)
        events = []
        opt.decision_listeners.append(lambda d, info: events.append(d))
        assert opt.rollback() is True
        assert "rollback" in events
        # The voided wave's partial observations are discarded and a
        # fresh wave is drawn around the surviving incumbent.
        assert opt.best_cost() is not None
        replacement = opt.propose()
        assert replacement
        assert {s.sample_id for s in replacement}.isdisjoint(
            {s.sample_id for s in second}
        )

    @pytest.mark.parametrize("backend", OPTIMIZER_BACKENDS)
    def test_infeasible_marking_round_trip(self, backend):
        opt = make(backend)
        samples = opt.propose()
        target = samples[0]
        opt.mark_infeasible(target.sample_id)
        assert opt.is_infeasible(target.point)
        assert opt.infeasible_regions == 1
        # Re-marking the same point records the mark but not a region.
        opt.mark_infeasible(target.sample_id)
        assert opt.infeasible_regions == 1
        assert opt.infeasible_marks == 2


class TestSpsaClipping:
    def test_perturbations_clipped_at_bounds(self):
        # Seed theta at the lower-left corner: every minus-perturbation
        # would leave the box and must be clipped back onto it.
        space = subspace()
        opt = SpsaOptimizer(
            space,
            np.random.default_rng(3),
            SpsaSettings(pairs=2, iterations=3),
            seed_point=np.zeros(len(space)),
        )
        samples = opt.propose()
        for s in samples:
            assert np.all(s.point >= 0.0) and np.all(s.point <= 1.0)
        incumbent = [s for s in samples if s.incumbent]
        assert len(incumbent) == 1
        assert np.array_equal(incumbent[0].point, np.zeros(len(space)))

    def test_gradient_survives_one_sided_clipping(self):
        # With theta on the boundary the plus/minus pair is asymmetric
        # (minus clips onto theta); the gradient must divide by the
        # actual displacement and theta must stay finite and in-box.
        space = subspace()
        opt = SpsaOptimizer(
            space,
            np.random.default_rng(3),
            SpsaSettings(pairs=1, iterations=2),
            seed_point=np.zeros(len(space)),
        )
        for s in opt.propose():
            opt.observe(s.sample_id, bowl(s.point))
        assert np.all(np.isfinite(opt._theta))
        assert np.all(opt._theta >= 0.0) and np.all(opt._theta <= 1.0)

    def test_fully_clipped_pair_contributes_no_gradient(self):
        # Degenerate bounds: lo == hi on every dimension, so plus and
        # minus clip onto the same point and the pair carries no
        # signal.  The update must be a no-op, not a 0/0.
        space = subspace()
        opt = SpsaOptimizer(
            space, np.random.default_rng(5), SpsaSettings(pairs=1, iterations=2)
        )
        opt.bounds.lo[:] = 0.5
        opt.bounds.hi[:] = 0.5
        for s in opt.propose():
            opt.observe(s.sample_id, 1.0)
        assert np.all(np.isfinite(opt._theta))
        assert np.allclose(opt._theta, 0.5)

    def test_seed_point_outside_bounds_is_clipped(self):
        space = subspace()
        opt = SpsaOptimizer(
            space,
            np.random.default_rng(0),
            SpsaSettings(),
            seed_point=np.full(len(space), 7.0),
        )
        opt.propose()
        assert np.all(opt._theta <= 1.0)


class TestSampleBasics:
    def test_sample_cost_is_mean_of_replicas(self):
        s = Sample(1, np.zeros(2), SearchPhase.GLOBAL)
        assert s.cost is None
        s.costs.extend([1.0, 3.0])
        assert s.cost == 2.0

    def test_ids_are_unique_across_backends(self):
        ids = set()
        for backend in OPTIMIZER_BACKENDS:
            for s in make(backend).propose():
                assert s.sample_id not in ids
                ids.add(s.sample_id)
