"""The shared wave-optimizer checkpoint format.

The recovery journal writes every finished session's optimizers via
``WaveOptimizer.checkpoint``; nothing reads a checkpoint back into an
optimizer.  These tests pin the format the journal stores: the
snapshot is JSON-round-trip safe, carries the counters and the
incumbent (point *and* cost), the rule-tightened bounds, the
infeasible regions and the terminal flag, and leaves out any wave in
flight.
"""

import json

import numpy as np
import pytest

from repro.core import parameters as P
from repro.core.cost import FAILURE_COST
from repro.core.hill_climbing import HillClimbSettings
from repro.core.optimizers import make_optimizer
from repro.core.parameters import PARAMETER_SPACE

SETTINGS = HillClimbSettings(m=6, n=4, global_search_limit=2)


def subspace():
    return PARAMETER_SPACE.subspace([P.IO_SORT_MB, P.SORT_SPILL_PERCENT])


def make(seed=7):
    return make_optimizer(
        "hill_climb", subspace(), np.random.default_rng(seed), SETTINGS
    )


def bowl(point):
    return float(np.sum((point - 0.4) ** 2))


def drive_waves(opt, waves, objective=bowl, mark_infeasible_first=False):
    """Observe *waves* full waves (no batch left in flight)."""
    for _ in range(waves):
        samples = opt.propose()
        if not samples:
            return
        if mark_infeasible_first:
            opt.mark_infeasible(samples[0].sample_id)
            mark_infeasible_first = False
        for s in opt.pending_samples():
            cost = objective(s.point)
            opt.observe(
                s.sample_id,
                FAILURE_COST if opt.is_infeasible(s.point) else cost,
            )


class TestCheckpointRoundTrip:
    def test_snapshot_is_json_safe(self):
        opt = make()
        drive_waves(opt, 3, mark_infeasible_first=True)
        ckpt = opt.checkpoint()
        assert ckpt == json.loads(json.dumps(ckpt))

    def test_snapshot_counters_and_incumbent(self):
        opt = make()
        drive_waves(opt, 3)
        ckpt = opt.checkpoint()
        assert ckpt["samples_proposed"] == opt.samples_proposed
        assert ckpt["observations"] == opt.observations
        assert ckpt["waves_started"] == opt.waves_started
        assert ckpt["wave_of_best"] == opt.wave_of_best
        assert ckpt["cost_trajectory"] == [[n, c] for n, c in opt.cost_trajectory]
        assert ckpt["incumbent_cost"] == pytest.approx(opt.best_cost())
        np.testing.assert_allclose(ckpt["incumbent_point"], opt.best_point())

    def test_bounds_and_infeasible_regions_survive(self):
        opt = make()
        drive_waves(opt, 2, mark_infeasible_first=True)
        opt.bounds.raise_lower(0, 0.2)
        bad_point = opt._infeasible_points[0]
        ckpt = json.loads(json.dumps(opt.checkpoint()))
        assert ckpt["bounds_lo"][0] == pytest.approx(0.2)
        assert len(ckpt["infeasible_points"]) == opt.infeasible_regions
        np.testing.assert_allclose(ckpt["infeasible_points"][0], bad_point)
        assert ckpt["infeasible_marks"] == opt.infeasible_marks


class TestCheckpointEdges:
    def test_fresh_optimizer_checkpoint_is_empty(self):
        ckpt = make().checkpoint()
        assert ckpt["samples_proposed"] == 0
        assert ckpt["incumbent_point"] is None
        assert ckpt["incumbent_cost"] is None
        assert not ckpt["done"]

    def test_in_flight_batch_is_excluded_from_checkpoint(self):
        opt = make()
        drive_waves(opt, 2)
        quiescent = opt.checkpoint()
        opt.propose()  # open a wave, observe nothing
        assert opt.checkpoint()["observations"] == quiescent["observations"]

    def test_done_flag_round_trips(self):
        opt = make()
        # Drive to termination.
        for _ in range(400):
            samples = opt.propose()
            if not samples:
                break
            for s in opt.pending_samples():
                opt.observe(s.sample_id, bowl(s.point))
        assert opt.finished
        assert json.loads(json.dumps(opt.checkpoint()))["done"] is True
