"""Tests for the dynamic configurator (Table-1 API)."""

import pytest

from repro.core import parameters as P
from repro.core.configuration import Configuration
from repro.core.configurator import DynamicConfigurator
from repro.mapreduce.jobspec import JobSpec, TaskType, WorkloadProfile


def make_spec(name="job"):
    return JobSpec(
        name=name,
        workload=WorkloadProfile(name="wl", map_output_ratio=1.0, map_output_record_size=100),
        input_path="/data/x",
        num_reducers=2,
    )


@pytest.fixture
def setup():
    cfgr = DynamicConfigurator()
    spec = make_spec()
    cfgr.register_job(spec)
    return cfgr, spec


class TestTable1Api:
    def test_job_parameters_listed(self, setup):
        cfgr, spec = setup
        params = cfgr.get_configurable_job_parameters(spec.job_id)
        assert P.IO_SORT_MB in params
        assert len(params) == 13

    def test_camel_case_aliases_exist(self, setup):
        cfgr, spec = setup
        assert cfgr.getConfigurableJobParameters(spec.job_id)
        assert cfgr.setJobParameters(spec.job_id, {P.IO_SORT_MB: 300}) == 1

    def test_unknown_job_rejected(self):
        cfgr = DynamicConfigurator()
        with pytest.raises(KeyError):
            cfgr.get_configurable_job_parameters("nope")

    def test_set_job_parameters_affects_future_tasks(self, setup):
        cfgr, spec = setup
        cfgr.set_job_parameters(spec.job_id, {P.IO_SORT_MB: 400})
        cfg = cfgr.task_config(spec, spec.map_task_id(0))
        assert cfg[P.IO_SORT_MB] == 400

    def test_set_task_parameters_single_task(self, setup):
        cfgr, spec = setup
        tid = spec.map_task_id(3)
        cfgr.set_task_parameters(spec.job_id, {P.IO_SORT_MB: 500}, task_id=tid)
        assert cfgr.task_config(spec, tid)[P.IO_SORT_MB] == 500
        # Other tasks keep the job-level value.
        assert cfgr.task_config(spec, spec.map_task_id(4))[P.IO_SORT_MB] == 100

    def test_running_task_exposes_only_hot_swappable(self, setup):
        cfgr, spec = setup
        tid = spec.map_task_id(0)
        cfgr.task_config(spec, tid)  # now "running"
        params = cfgr.get_configurable_task_parameters(spec.job_id, tid)
        assert P.SORT_SPILL_PERCENT in params
        assert P.MAP_MEMORY_MB not in params

    def test_hot_swap_mutates_live_config(self, setup):
        cfgr, spec = setup
        tid = spec.map_task_id(0)
        live = cfgr.task_config(spec, tid)
        cfgr.set_task_parameters(spec.job_id, {P.SORT_SPILL_PERCENT: 0.99}, task_id=tid)
        assert live[P.SORT_SPILL_PERCENT] == 0.99

    def test_cold_params_do_not_hot_swap(self, setup):
        cfgr, spec = setup
        tid = spec.map_task_id(0)
        live = cfgr.task_config(spec, tid)
        cfgr.set_task_parameters(spec.job_id, {P.MAP_MEMORY_MB: 2048}, task_id=tid)
        assert live[P.MAP_MEMORY_MB] != 2048  # running task keeps its grant

    def test_all_tasks_variant_hot_swaps_every_live_task(self, setup):
        cfgr, spec = setup
        live0 = cfgr.task_config(spec, spec.map_task_id(0))
        live1 = cfgr.task_config(spec, spec.map_task_id(1))
        cfgr.set_task_parameters(spec.job_id, {P.SORT_SPILL_PERCENT: 0.95})
        assert live0[P.SORT_SPILL_PERCENT] == 0.95
        assert live1[P.SORT_SPILL_PERCENT] == 0.95

    def test_live_configs_alias_nothing(self, setup):
        cfgr, spec = setup
        live0 = cfgr.task_config(spec, spec.map_task_id(0))
        live1 = cfgr.task_config(spec, spec.map_task_id(1))
        cfgr.set_task_parameters(
            spec.job_id, {P.SORT_SPILL_PERCENT: 0.99}, task_id=spec.map_task_id(0)
        )
        assert live0[P.SORT_SPILL_PERCENT] == 0.99
        assert live1[P.SORT_SPILL_PERCENT] == 0.8
        assert cfgr.job_config(spec.job_id)[P.SORT_SPILL_PERCENT] == 0.8
        assert spec.base_config[P.SORT_SPILL_PERCENT] == 0.8


class TestWaveQueues:
    def test_queue_pop_order(self, setup):
        cfgr, spec = setup
        a = Configuration({P.IO_SORT_MB: 200})
        b = Configuration({P.IO_SORT_MB: 300})
        cfgr.push_wave_configs(spec.job_id, TaskType.MAP, [(a, 1), (b, 2)])
        assert cfgr.task_config(spec, spec.map_task_id(0))[P.IO_SORT_MB] == 200
        assert cfgr.task_config(spec, spec.map_task_id(1))[P.IO_SORT_MB] == 300

    def test_queue_exhaustion_falls_back_to_job_config(self, setup):
        cfgr, spec = setup
        cfgr.push_wave_configs(
            spec.job_id, TaskType.MAP, [(Configuration({P.IO_SORT_MB: 200}), 1)]
        )
        cfgr.task_config(spec, spec.map_task_id(0))
        cfg = cfgr.task_config(spec, spec.map_task_id(1))
        assert cfg[P.IO_SORT_MB] == 100

    def test_queues_are_per_task_type(self, setup):
        cfgr, spec = setup
        cfgr.push_wave_configs(
            spec.job_id, TaskType.REDUCE, [(Configuration({P.IO_SORT_MB: 300}), 1)]
        )
        # A map task must not consume the reduce queue.
        assert cfgr.task_config(spec, spec.map_task_id(0))[P.IO_SORT_MB] == 100
        assert cfgr.task_config(spec, spec.reduce_task_id(0))[P.IO_SORT_MB] == 300

    def test_assignment_listener_receives_meta(self, setup):
        cfgr, spec = setup
        seen = []
        cfgr.assignment_listeners.append(
            lambda jid, tid, cfg, meta: seen.append((str(tid), meta))
        )
        cfgr.push_wave_configs(
            spec.job_id, TaskType.MAP, [(Configuration(), "sample-9")]
        )
        cfgr.task_config(spec, spec.map_task_id(0))
        assert seen[0][1] == "sample-9"

    def test_queued_configs_are_clamped_feasible(self, setup):
        cfgr, spec = setup
        infeasible = Configuration({P.MAP_MEMORY_MB: 512, P.IO_SORT_MB: 1600})
        cfgr.push_wave_configs(spec.job_id, TaskType.MAP, [(infeasible, 1)])
        cfg = cfgr.task_config(spec, spec.map_task_id(0))
        assert cfg[P.IO_SORT_MB] <= 512 * 0.8 * 0.75


class TestLaunchRefresh:
    def test_job_config_path_refreshes_at_launch(self, setup):
        cfgr, spec = setup
        tid = spec.map_task_id(0)
        requested = cfgr.task_config(spec, tid)
        cfgr.set_job_parameters(spec.job_id, {P.IO_SORT_MB: 333})
        launched = cfgr.task_launch_config(spec, tid, requested)
        assert launched[P.IO_SORT_MB] == 333

    def test_grant_parameters_pinned_at_request_values(self, setup):
        cfgr, spec = setup
        tid = spec.map_task_id(0)
        requested = cfgr.task_config(spec, tid)
        cfgr.set_job_parameters(spec.job_id, {P.MAP_MEMORY_MB: 4096})
        launched = cfgr.task_launch_config(spec, tid, requested)
        assert launched[P.MAP_MEMORY_MB] == requested[P.MAP_MEMORY_MB]

    def test_sampled_config_not_refreshed(self, setup):
        cfgr, spec = setup
        tid = spec.map_task_id(0)
        cfgr.push_wave_configs(
            spec.job_id, TaskType.MAP, [(Configuration({P.IO_SORT_MB: 250}), 1)]
        )
        requested = cfgr.task_config(spec, tid)
        cfgr.set_job_parameters(spec.job_id, {P.IO_SORT_MB: 999})
        launched = cfgr.task_launch_config(spec, tid, requested)
        assert launched is requested

    def test_task_finished_cleans_state(self, setup):
        cfgr, spec = setup
        tid = spec.map_task_id(0)
        cfgr.task_config(spec, tid)
        cfgr.task_finished(tid)
        # No longer "running": all parameters configurable again.
        assert P.MAP_MEMORY_MB in cfgr.get_configurable_task_parameters(spec.job_id, tid)


class TestJobLifecycle:
    def test_two_jobs_independent(self):
        cfgr = DynamicConfigurator()
        spec1, spec2 = make_spec("a"), make_spec("b")
        cfgr.register_job(spec1)
        cfgr.register_job(spec2)
        cfgr.set_job_parameters(spec1.job_id, {P.IO_SORT_MB: 640})
        assert cfgr.task_config(spec2, spec2.map_task_id(0))[P.IO_SORT_MB] == 100
