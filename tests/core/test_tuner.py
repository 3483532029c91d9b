"""Tests for the online tuner (both strategies, end to end)."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core import parameters as P
from repro.core.configuration import Configuration
from repro.core.hill_climbing import HillClimbSettings
from repro.core.knowledge_base import TuningKnowledgeBase
from repro.core.tuner import (
    MAP_TUNABLE,
    REDUCE_TUNABLE,
    OnlineTuner,
    TunerSettings,
    TuningStrategy,
)
from repro.experiments.harness import SimCluster
from repro.mapreduce.jobspec import JobSpec, TaskType, WorkloadProfile
from repro.workloads.datasets import DatasetSpec

MB = 1024**2

SMALL_HC = HillClimbSettings(m=6, n=4, global_search_limit=2)


def small_cluster(seed=0):
    return SimCluster(
        seed=seed,
        cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)),
        start_monitors=False,
    )


def small_spec(sc, blocks=40, reducers=8):
    DatasetSpec(f"d{blocks}", num_blocks=blocks).load(sc.hdfs, f"/in{blocks}")
    profile = WorkloadProfile(
        name="t", map_output_ratio=1.0, map_output_record_size=100.0,
        map_output_noise=0.02, partition_skew=0.1,
        map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
    )
    return JobSpec(
        name="t", workload=profile, input_path=f"/in{blocks}", num_reducers=reducers
    )


class TestSubspaces:
    def test_map_and_reduce_subspaces_disjoint_except_shared(self):
        shared = set(MAP_TUNABLE) & set(REDUCE_TUNABLE)
        assert shared == set()  # io.sort.factor lives in the map search

    def test_all_13_minus_shared_covered(self):
        covered = set(MAP_TUNABLE) | set(REDUCE_TUNABLE)
        assert len(covered) == 13


class TestAggressive:
    def run_tuning(self, seed=0, blocks=60):
        sc = small_cluster(seed)
        spec = small_spec(sc, blocks=blocks)
        tuner = OnlineTuner(
            TuningStrategy.AGGRESSIVE,
            settings=TunerSettings(hill_climb=SMALL_HC, use_knowledge_base=False),
            rng=np.random.default_rng(seed),
        )
        am = tuner.submit(sc, spec)
        result = sc.sim.run_until_complete(am.completion)
        return sc, spec, tuner, result

    def test_job_completes_under_tuning(self):
        _sc, _spec, _tuner, result = self.run_tuning()
        assert result.succeeded

    def test_tasks_run_varied_configs(self):
        _sc, _spec, _tuner, result = self.run_tuning()
        sort_mbs = {s.config[P.IO_SORT_MB] for s in result.stats_of(TaskType.MAP)}
        assert len(sort_mbs) > 3  # the search actually tried configs

    def test_waves_are_sequential(self):
        _sc, _spec, _tuner, result = self.run_tuning()
        maps = result.stats_of(TaskType.MAP)
        by_wave = {}
        for s in maps:
            by_wave.setdefault(s.wave, []).append(s)
        waves = sorted(by_wave)
        for earlier, later in zip(waves, waves[1:]):
            end_prev = max(s.end_time for s in by_wave[earlier])
            start_next = min(s.start_time for s in by_wave[later])
            assert start_next >= end_prev - 1e-9

    def test_recommended_config_is_feasible(self):
        from repro.core.configuration import is_feasible

        _sc, spec, tuner, _result = self.run_tuning()
        cfg = tuner.recommended_config(spec.job_id)
        assert is_feasible(cfg)

    def test_finalize_records_knowledge(self):
        _sc, spec, tuner, result = self.run_tuning()
        tuner.finalize_job(spec.job_id, result)
        assert len(tuner.knowledge_base) == 1

    def test_rule_log_populated(self):
        _sc, spec, tuner, _result = self.run_tuning()
        assert tuner.rule_log(spec.job_id)

    def test_double_attach_rejected(self):
        sc = small_cluster()
        spec = small_spec(sc)
        tuner = OnlineTuner(TuningStrategy.AGGRESSIVE, rng=np.random.default_rng(0))
        tuner.attach_job(spec)
        with pytest.raises(ValueError):
            tuner.attach_job(spec)

    def test_knowledge_base_seed_used(self):
        kb = TuningKnowledgeBase()
        seed_cfg = Configuration({P.IO_SORT_MB: 160})
        sc = small_cluster()
        spec = small_spec(sc)
        input_bytes = sc.hdfs.get(spec.input_path).size_bytes
        kb.record("t", input_bytes, seed_cfg, cost=1.0, job_duration=100)
        tuner = OnlineTuner(
            TuningStrategy.AGGRESSIVE,
            settings=TunerSettings(hill_climb=SMALL_HC, use_knowledge_base=True),
            rng=np.random.default_rng(0),
            knowledge_base=kb,
        )
        am = tuner.submit(sc, spec)
        result = sc.sim.run_until_complete(am.completion)
        # The seeded value must appear among evaluated map configs.
        tried = {s.config[P.IO_SORT_MB] for s in result.stats_of(TaskType.MAP)}
        assert 160 in tried


class TestConservative:
    @pytest.fixture(autouse=True)
    def window_of_six(self, monkeypatch):
        monkeypatch.setattr("repro.core.tuner.CONSERVATIVE_WINDOW", 6)

    def run_conservative(self, seed=0, blocks=60):
        sc = small_cluster(seed)
        spec = small_spec(sc, blocks=blocks)
        tuner = OnlineTuner(
            TuningStrategy.CONSERVATIVE,
            settings=TunerSettings(use_knowledge_base=False),
            rng=np.random.default_rng(seed),
        )
        am = tuner.submit(sc, spec)
        result = sc.sim.run_until_complete(am.completion)
        return sc, spec, tuner, result

    def test_job_completes(self):
        _sc, _spec, _tuner, result = self.run_conservative()
        assert result.succeeded

    def test_scheduling_never_delayed(self):
        """Conservative tuning must not gate task launches into waves."""
        _sc, _spec, _tuner, result = self.run_conservative()
        assert {s.wave for s in result.task_stats} == {-1}

    def test_config_evolves_during_run(self):
        _sc, _spec, _tuner, result = self.run_conservative()
        maps = sorted(result.stats_of(TaskType.MAP), key=lambda s: s.start_time)
        first_cfg = maps[0].config[P.IO_SORT_MB]
        last_cfg = maps[-1].config[P.IO_SORT_MB]
        assert first_cfg != last_cfg  # rules moved io.sort.mb

    def test_not_slower_than_default(self):
        sc_d = small_cluster()
        default_result = sc_d.run_job(small_spec(sc_d, blocks=60))
        _sc, _spec, _tuner, tuned_result = self.run_conservative(blocks=60)
        assert tuned_result.duration <= default_result.duration * 1.05

    def test_recommended_config_reflects_rules(self):
        _sc, spec, tuner, _result = self.run_conservative()
        cfg = tuner.recommended_config(spec.job_id)
        assert cfg[P.SORT_SPILL_PERCENT] == pytest.approx(0.99)
        assert cfg[P.MERGE_INMEM_THRESHOLD] == 0
