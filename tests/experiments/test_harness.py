"""Tests for the experiment harness and reporting."""

import pytest

from repro.cluster.topology import ClusterSpec
from repro.experiments.harness import SimCluster
from repro.experiments.reporting import FigureReport, format_table
from repro.workloads.suite import terasort_case


class TestSimCluster:
    def test_scheduler_selection(self):
        assert SimCluster(scheduler="fifo", start_monitors=False)
        assert SimCluster(scheduler="fair", start_monitors=False)
        with pytest.raises(ValueError):
            SimCluster(scheduler="capacity")

    def test_monitors_collect_node_samples(self):
        sc = SimCluster(
            seed=0,
            cluster_spec=ClusterSpec(num_slaves=2, racks=(2,)),
            monitor_interval=1.0,
        )
        case = terasort_case(0.5)
        from repro.workloads.suite import make_job_spec

        sc.run_job(make_job_spec(case, sc.hdfs))
        assert len(sc.monitor.node_samples) > 0
        assert len(sc.monitor.task_stats) == case.num_maps + case.num_reducers


class TestReporting:
    def test_format_table_aligns(self):
        out = format_table(["name", "v"], [["a", 1.0], ["bb", 22.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_figure_report_series_validation(self):
        rep = FigureReport("Fig X", "test", ["a", "b"])
        with pytest.raises(ValueError):
            rep.add_series("s", [1.0])

    def test_improvement_computation(self):
        rep = FigureReport("Fig X", "test", ["a"])
        rep.add_series("Default", [100.0])
        rep.add_series("MRONLINE", [80.0])
        assert rep.improvement_over("Default", "MRONLINE") == [pytest.approx(0.2)]

    def test_render_includes_improvement_line(self):
        rep = FigureReport("Fig X", "test", ["a"])
        rep.add_series("Default", [100.0])
        rep.add_series("MRONLINE", [75.0])
        out = rep.render()
        assert "Fig X" in out
        assert "+25.0%" in out

    def test_render_notes(self):
        rep = FigureReport("Fig X", "t", ["a"], notes=["something"])
        rep.add_series("s", [1.0])
        assert "note: something" in rep.render()
