"""Tests for the comparison baselines."""

import numpy as np
import pytest

from repro.baselines.gunther import GeneticTuner, GuntherSettings
from repro.baselines.offline_guide import offline_guide_config
from repro.core import parameters as P
from repro.core.configuration import Configuration, enforce_dependencies, is_feasible
from repro.core.optimizers.base import uniform_sample
from repro.core.optimizers.random_search import (
    RandomSearchOptimizer,
    RandomSearchSettings,
)
from repro.core.parameters import PARAMETER_SPACE
from repro.workloads.suite import case_by_name, table3_cases


class TestDefault:
    def test_is_table2(self):
        cfg = Configuration()
        assert cfg[P.IO_SORT_MB] == 100
        assert cfg[P.SHUFFLE_PARALLELCOPIES] == 5


class TestOfflineGuide:
    @pytest.mark.parametrize("case", table3_cases(), ids=lambda c: c.name)
    def test_feasible_for_every_case(self, case):
        assert is_feasible(offline_guide_config(case))

    def test_terasort_buffer_covers_map_output(self):
        cfg = offline_guide_config(case_by_name("terasort"))
        # 128 MiB map output: the guide sizes the buffer above it.
        assert cfg[P.IO_SORT_MB] >= 134

    def test_shuffle_heavy_job_gets_bigger_reducers(self):
        bigram = offline_guide_config(case_by_name("bigram-freebase"))
        grep = offline_guide_config(case_by_name("text-search-freebase"))
        assert bigram[P.REDUCE_MEMORY_MB] > grep[P.REDUCE_MEMORY_MB]

    def test_parallelcopies_scales_with_cluster(self):
        cfg = offline_guide_config(case_by_name("terasort"), num_nodes=30)
        assert cfg[P.SHUFFLE_PARALLELCOPIES] == 30


class TestRandomSearch:
    """The uniform random-search baseline: ``uniform_sample`` draws and
    the ``RandomSearchOptimizer`` that proposes them."""

    def test_points_in_unit_cube(self):
        pts = uniform_sample(np.random.default_rng(0), 50, [(0.0, 1.0)] * 4)
        assert pts.shape == (50, 4)
        assert (pts >= 0).all() and (pts <= 1).all()

    def test_bounds_respected(self):
        pts = uniform_sample(np.random.default_rng(0), 50, [(0.4, 0.6), (0, 1)])
        assert (pts[:, 0] >= 0.4).all() and (pts[:, 0] <= 0.6).all()

    def test_configurations_feasible(self):
        opt = RandomSearchOptimizer(
            PARAMETER_SPACE, np.random.default_rng(1), RandomSearchSettings(wave_size=20)
        )
        samples = opt.propose()
        assert len(samples) == 20
        for s in samples:
            cfg = enforce_dependencies(Configuration().updated(PARAMETER_SPACE.decode(s.point)))
            assert is_feasible(cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomSearchSettings(wave_size=0)


class TestGunther:
    def synthetic_fitness(self):
        """Quadratic bowl over two decoded parameters."""
        target_sort = 400.0
        target_copies = 30.0

        def evaluate(cfg):
            return (
                ((cfg[P.IO_SORT_MB] - target_sort) / 100.0) ** 2
                + ((cfg[P.SHUFFLE_PARALLELCOPIES] - target_copies) / 10.0) ** 2
            )

        return evaluate

    def test_runs_budgeted_evaluations(self):
        st = GuntherSettings(population=6, generations=3)
        tuner = GeneticTuner(
            self.synthetic_fitness(), np.random.default_rng(0), st
        )
        tuner.run()
        assert len(tuner.evaluations) == st.total_runs == 18

    def test_improves_over_generations(self):
        st = GuntherSettings(population=8, generations=5)
        tuner = GeneticTuner(self.synthetic_fitness(), np.random.default_rng(0), st)
        _best_cfg, best_fit = tuner.run()
        first_gen_best = min(v for _c, v in tuner.evaluations[: st.population])
        assert best_fit <= first_gen_best

    def test_best_after_runs_monotone(self):
        tuner = GeneticTuner(
            self.synthetic_fitness(),
            np.random.default_rng(2),
            GuntherSettings(population=6, generations=4),
        )
        tuner.run()
        series = [tuner.best_after_runs(k) for k in range(1, 25)]
        assert all(a >= b for a, b in zip(series, series[1:]))

    def test_best_after_runs_requires_run(self):
        tuner = GeneticTuner(lambda c: 0.0, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            tuner.best_after_runs(5)

    def test_default_settings_in_paper_band(self):
        # Gunther is reported at 20-40 test runs.
        assert 20 <= GuntherSettings().total_runs <= 40

    def test_returned_config_feasible(self):
        tuner = GeneticTuner(
            self.synthetic_fitness(),
            np.random.default_rng(3),
            GuntherSettings(population=4, generations=2),
        )
        best_cfg, _fit = tuner.run()
        assert is_feasible(best_cfg)
