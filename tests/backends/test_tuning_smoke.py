"""Seeded smoke test: the tuner improves real executions, end to end.

This is the acceptance loop of the whole backend refactor: the gray-box
hill climber attached to :class:`LocalProcessBackend` must drive real
worker processes through multiple tuning waves and reduce its measured
Eq-1 cost.  Wall-clock timings are noisy at toy scale, so the assertion
is on the cost the climber actually optimizes (utilization + spill
ratio + normalized time over *measured* TaskStats), with a tolerance:
the best sampled cost must not be worse than the first wave's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.local import LocalProcessBackend, generate_corpus, local_job_spec
from repro.core.hill_climbing import HillClimbSettings
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.sim.rng import derive_seed
from repro.testing import assert_no_output_leaks

#: Noise guard: real timings wobble run to run, so instead of demanding
#: strict improvement we demand the search never *ends worse* than it
#: started by more than this fraction.
COST_TOLERANCE = 0.05


@pytest.mark.parametrize("seed", [1, 2])
def test_aggressive_tuning_improves_real_cost(seed, tmp_path):
    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_splits=24, split_kb=16, seed=seed)
    spec = local_job_spec("wordcount", corpus, num_reducers=4)
    tuner = OnlineTuner(
        TuningStrategy.AGGRESSIVE,
        settings=TunerSettings(
            hill_climb=HillClimbSettings(m=6, n=4, global_search_limit=1)
        ),
        rng=np.random.default_rng(derive_seed(seed, "real-tuner", "wordcount")),
    )
    with LocalProcessBackend(workspace=str(tmp_path / "ws")) as backend:
        handle = backend.attach_tuner(tuner, spec)
        result = backend.wait(handle)
        assert result.succeeded, result.failure_reasons
        assert_no_output_leaks(backend)

        summary = tuner.session_summary(spec.job_id)
        searches = summary["searches"]
        # The map side must complete >= 2 tuning waves of real tasks.
        assert searches["map"]["waves"] >= 2
        trajectory = searches["map"]["cost_trajectory"]
        assert trajectory, "climber never evaluated a sampled config"
        first_cost = trajectory[0][1]
        best_cost = searches["map"]["best_cost"]
        assert best_cost is not None
        assert best_cost <= first_cost * (1 + COST_TOLERANCE)

        # Tuned configs really reached the workers: multiple distinct
        # map-side configurations executed.
        map_configs = {
            tuple(sorted(s.config.items()))
            for s in result.task_stats
            if s.task_type.value == "map"
        }
        assert len(map_configs) >= 2

        # And the session yields a usable recommendation.
        recommended = tuner.recommended_config(spec.job_id)
        assert recommended["mapreduce.task.io.sort.mb"] > 0


def test_conservative_tuning_runs_real_job(tmp_path):
    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_splits=6, split_kb=8, seed=5)
    spec = local_job_spec("grep", corpus, num_reducers=2)
    tuner = OnlineTuner(
        TuningStrategy.CONSERVATIVE,
        rng=np.random.default_rng(derive_seed(5, "real-tuner", "grep")),
    )
    with LocalProcessBackend(workspace=str(tmp_path / "ws")) as backend:
        result = backend.wait(backend.attach_tuner(tuner, spec))
        assert result.succeeded
        summary = tuner.session_summary(spec.job_id)
        observed = summary["tasks_observed"]
        assert observed["map"] == 6
        assert observed["reduce"] == 2
