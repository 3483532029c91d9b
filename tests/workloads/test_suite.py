"""Tests for the benchmark suite: Table-3 calibration."""

import numpy as np
import pytest

from repro.experiments.harness import SimCluster
from repro.mapreduce.dataflow import JobDataflow
from repro.workloads.datasets import (
    bbp_dataset,
    freebase_dataset,
    teragen_dataset,
    wikipedia_dataset,
)
from repro.workloads.suite import JobType, case_by_name, make_job_spec, table3_cases, terasort_case

GB = 1024**3


class TestDatasets:
    def test_wikipedia_map_count(self):
        # Table 3: 676 maps on the Wikipedia jobs.
        assert wikipedia_dataset().num_blocks == 676

    def test_freebase_map_count(self):
        assert freebase_dataset().num_blocks == 752

    def test_wikipedia_size_close_to_paper(self):
        assert wikipedia_dataset().size_gb * 1.024**3 == pytest.approx(90.5, rel=0.02)

    def test_teragen_sizes(self):
        assert teragen_dataset(100.0).num_blocks == 800
        assert teragen_dataset(2.0).num_blocks == 16

    def test_teragen_validation(self):
        with pytest.raises(ValueError):
            teragen_dataset(0)

    @pytest.mark.parametrize("size", [-5.0, float("nan")])
    def test_teragen_rejects_non_positive_sizes(self, size):
        with pytest.raises(ValueError, match="size_gb must be positive"):
            teragen_dataset(size)

    def test_bbp_tiny_splits(self):
        ds = bbp_dataset(100)
        assert ds.num_blocks == 100
        assert ds.block_size == 1024**2

    def test_load_registers_once(self):
        sc = SimCluster(seed=0, start_monitors=False)
        ds = teragen_dataset(2.0)
        f1 = ds.load(sc.hdfs)
        f2 = ds.load(sc.hdfs)
        assert f1 is f2
        assert len(f1.blocks) == 16


class TestTable3:
    def test_ten_rows(self):
        assert len(table3_cases()) == 10

    def test_job_types_match_paper(self):
        types = {c.name: c.job_type for c in table3_cases()}
        assert types["bigram-wikipedia"] is JobType.SHUFFLE
        assert types["inverted-index-wikipedia"] is JobType.MAP
        assert types["wordcount-wikipedia"] is JobType.MAP
        assert types["text-search-wikipedia"] is JobType.COMPUTE
        assert types["bigram-freebase"] is JobType.SHUFFLE
        assert types["inverted-index-freebase"] is JobType.COMPUTE
        assert types["terasort"] is JobType.SHUFFLE
        assert types["bbp"] is JobType.COMPUTE

    def test_reducer_counts(self):
        for case in table3_cases():
            expected = 1 if case.name == "bbp" else 200
            assert case.num_reducers == expected, case.name

    @pytest.mark.parametrize("case", table3_cases(), ids=lambda c: c.name)
    def test_shuffle_volume_calibration(self, case):
        """Expected (analytic) shuffle volume within 5% of Table 3."""
        sc = SimCluster(seed=0, start_monitors=False)
        spec = make_job_spec(case, sc.hdfs)
        df = JobDataflow(spec, sc.hdfs.get(spec.input_path), rng=np.random.default_rng(0))
        assert df.expected_shuffle_bytes == pytest.approx(
            case.expected_shuffle_bytes, rel=0.05
        ), case.name

    @pytest.mark.parametrize(
        "case",
        [c for c in table3_cases() if c.expected_output_bytes > 0],
        ids=lambda c: c.name,
    )
    def test_output_volume_calibration(self, case):
        sc = SimCluster(seed=0, start_monitors=False)
        spec = make_job_spec(case, sc.hdfs)
        df = JobDataflow(spec, sc.hdfs.get(spec.input_path), rng=np.random.default_rng(0))
        assert df.expected_output_bytes == pytest.approx(
            case.expected_output_bytes, rel=0.06
        ), case.name

    def test_case_by_name(self):
        assert case_by_name("terasort").name == "terasort"
        with pytest.raises(KeyError):
            case_by_name("nope")


class TestTerasortCase:
    def test_reducers_quarter_of_maps(self):
        case = terasort_case(2.0)
        assert case.num_reducers == case.num_maps // 4

    def test_explicit_reducers(self):
        assert terasort_case(2.0, num_reducers=7).num_reducers == 7

    def test_paper_jobsize_examples(self):
        # Section 8.4: "4 reducers and 16 mappers for a job with a size
        # of 2 GB".
        case = terasort_case(2.0)
        assert case.num_maps == 16
        assert case.num_reducers == 4


class TestProfiles:
    def test_all_profiles_construct(self):
        for case in table3_cases():
            assert case.profile.map_output_ratio >= 0

    def test_combiner_apps(self):
        combiners = {c.name: c.profile.has_combiner for c in table3_cases()}
        assert combiners["wordcount-wikipedia"]
        assert combiners["bigram-wikipedia"]
        assert not combiners["terasort"]
        assert not combiners["inverted-index-wikipedia"]

    def test_bbp_is_compute_bound(self):
        case = case_by_name("bbp")
        assert case.profile.map_cpu_fixed_sec > 100
        assert case.profile.map_cpu_parallelism > 1

    def test_wordcount_dataset_validation(self):
        from repro.workloads.wordcount import wordcount_profile

        with pytest.raises(ValueError):
            wordcount_profile("unknown")
