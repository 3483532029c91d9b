"""Pinned node-sample streams of three monitored runs.

Each pin hashes every ``NodeSampled`` event of one run in bus order:
the ``repr`` of the event time, the node id and each
:class:`~repro.monitor.statistics.NodeStats` field.  The runs join
nodes off the 5 s sampling grid, drain and preempt nodes, degrade and
partition the fabric, and black out the central monitor, all with LATE
speculation on.  How the slave monitors are scheduled, which nodes they
sample and how NIC utilization is read must leave every stream
unchanged.

The monitor packs each sample it keeps into ``node_samples`` and builds
its per-node timelines from those records when they are read.
``Recorder`` keeps, beside it, the samples the monitor should have kept
and the timelines it used to extend sample by sample: the store must
read back those samples, and the means and timelines of every run must
equal the eager ones exactly, mid-run too.

The slave monitor hands its samples to the central monitor directly and
builds ``NodeSampled`` events only for a ``node`` subscriber such as
``Recorder``.  Each run, repeated with no such subscriber, must leave
the monitor with the same packed bytes, departures and means, and must
build no per-sample object at all.

Print the current values with::

    PYTHONPATH=src python -m tests.monitor.test_sample_pins --record
"""

import dataclasses
import hashlib
import sys
from collections import defaultdict

import pytest

from repro.backends.local import LocalProcessBackend
from repro.cluster.topology import ClusterSpec
from repro.experiments.harness import SimCluster
from repro.experiments.parallel import RunRequest, build_request, run_request
from repro.faults import Fault, FaultPlan
from repro.monitor import slave_monitor
from repro.monitor.statistics import UtilizationTimeline
from repro.telemetry.events import NodeSampled
from repro.workloads.suite import case_by_name, make_job_spec, shrink_case
from repro.yarn.app_master import FaultToleranceSettings, SpeculationSettings


class Recorder:
    """A run's ``NodeSampled`` events, and eager timelines beside the monitor.

    ``ingested`` holds each sample outside the monitor's gaps, the ones
    ``CentralMonitor.on_node_stats`` should keep.  The eager timelines
    take each of them as it arrives, as ``on_node_stats`` once extended
    its own.  With *probe_at*, a sim callback at that instant reads the
    monitor's means against the eager ones, while samples are still
    arriving.
    """

    def __init__(self, sim, bus, monitor, probe_at=None, watch=True):
        self.bus = bus
        self.monitor = monitor
        self.samples = []
        self.ingested = []
        self.cpu = defaultdict(UtilizationTimeline)
        self.mem = defaultdict(UtilizationTimeline)
        #: ``(samples kept so far, derived means, eager means)`` per probe.
        self.probes = []
        if watch:
            bus.subscribe(self.on_event, categories=("node",))
        if probe_at is not None:
            sim.call_at(probe_at, self.probe)

    def on_event(self, event):
        if not isinstance(event, NodeSampled):
            return
        self.samples.append(event)
        s = event.stats
        if self.monitor.gaps and self.monitor._in_gap(s.node_id, s.time):
            return
        self.ingested.append(s)
        self.cpu[s.node_id].add(s.time, s.cpu_utilization)
        self.mem[s.node_id].add(s.time, s.memory_utilization)

    def means(self, since):
        """``(derived, eager)`` pairs of CPU and memory means from *since*."""
        m = self.monitor
        derived = (m.mean_cpu_utilization(since), m.mean_memory_utilization(since))
        eager = (m._mean_over(self.cpu, since), m._mean_over(self.mem, since))
        return derived, eager

    def probe(self):
        self.probes.append((len(self.monitor.node_samples), *self.means(0.0)))


def _stream(samples):
    return [(ev.time, *dataclasses.astuple(ev.stats)) for ev in samples]


def churn_off_grid(probe_at=None, watch=True):
    """6 nodes; joins at 1.3 s and 7.9 s, a decommission, a spot preempt."""
    sc = SimCluster(
        seed=2,
        cluster_spec=ClusterSpec(num_slaves=6, racks=(3, 3)),
        fault_tolerance=FaultToleranceSettings(speculation=SpeculationSettings()),
    )
    recorder = Recorder(sc.sim, sc.telemetry, sc.monitor, probe_at, watch)
    sc.inject_faults(
        plan=FaultPlan(
            (
                Fault(time=1.3, kind="node_join", node_id=0),
                Fault(time=7.9, kind="node_join", node_id=4),
                Fault(time=22.0, kind="node_decommission", node_id=2),
                Fault(time=31.0, kind="spot_preempt", node_id=5, duration=6.0),
            )
        )
    )
    case = shrink_case(case_by_name("terasort"), num_blocks=24, num_reducers=8)
    result = sc.run_job(make_job_spec(case, sc.hdfs))
    return result, recorder


def _request_run(request, probe_at, watch):
    backend, _plan = build_request(request)
    recorder = Recorder(backend.sim, backend.telemetry, backend.monitor, probe_at, watch)
    result, _recommended = run_request(backend, request)
    return result, recorder


def shuffle_faults(probe_at=None, watch=True):
    """TeraSort 100x25 under link degrade, flaky link and rack partition."""
    return _request_run(
        RunRequest.build(
            "terasort",
            1,
            tuning="conservative",
            num_blocks=100,
            num_reducers=25,
            faults={
                "link_degraded": 1,
                "link_flaky": 1,
                "rack_partitions": 1,
                "horizon": 200.0,
            },
        ),
        probe_at,
        watch,
    )


def generated_mixed_plan(probe_at=None, watch=True):
    """A drawn plan: crash, two joins, drain, preempt, outage, stats gap."""
    return _request_run(
        RunRequest.build(
            "terasort",
            3,
            num_blocks=40,
            num_reducers=10,
            faults={
                "crashes": 1,
                "joins": 2,
                "decommissions": 1,
                "spot_preempts": 1,
                "monitor_outages": 1,
                "stats_gaps": 1,
                "horizon": 60.0,
            },
        ),
        probe_at,
        watch,
    )


RUNS = {
    "churn_off_grid": churn_off_grid,
    "shuffle_faults": shuffle_faults,
    "generated_mixed_plan": generated_mixed_plan,
}

#: name -> (samples on the bus, sha256 of the sample stream).
PINS = {
    "churn_off_grid": (
        131,
        "ef694e209a080e036ac1ea1b6bac9d158b46a6edfe0aaaf1bfca8732ac077655",
    ),
    "generated_mixed_plan": (
        276,
        "0001d9e2e4258d9ea386dda28b1b0eb7ff80a338111f3ac30062ed6220e63906",
    ),
    "shuffle_faults": (
        612,
        "41a6d08107abc6f8f9b4f3e9e37b54c8ef98eebfdee8faba52d987aae32beb70",
    ),
}


#: name -> a mid-run instant, off the 5 s grid, for the probe.
PROBE_AT = {
    "churn_off_grid": 41.3,
    "generated_mixed_plan": 45.1,
    "shuffle_faults": 80.7,
}


def observe(name):
    result, recorder = RUNS[name]()
    stream = _stream(recorder.samples)
    digest = hashlib.sha256(repr(stream).encode("utf-8")).hexdigest()
    return result, len(stream), digest


@pytest.mark.parametrize("name", sorted(PINS))
def test_node_sample_stream_is_pinned(name):
    result, count, digest = observe(name)
    assert result.succeeded
    assert (count, digest) == PINS[name], f"{name} sample stream drifted"


@pytest.mark.parametrize("name", sorted(PINS))
def test_derived_timelines_equal_eager_ones(name):
    result, recorder = RUNS[name](probe_at=PROBE_AT[name])
    assert result.succeeded
    monitor = recorder.monitor
    # The packed store reads back every sample it was meant to keep, with
    # the producers' int and float types (``repr`` tells 1 from 1.0).
    stored = list(monitor.node_samples)
    assert stored == recorder.ingested
    assert repr(stored) == repr(recorder.ingested)
    assert monitor.node_samples[-1] == recorder.ingested[-1]
    # Mid-run: the means read from a sim callback match, and more
    # samples arrive after it.
    ((kept, derived, eager),) = recorder.probes
    assert derived == eager
    assert 0 < kept < len(monitor.node_samples)
    end = monitor.node_samples[-1].time
    departures = list(monitor.departed_nodes.values())
    sinces = sorted(
        {0.0, end / 2, *departures, *(d + 2.5 for d in departures)}
        | {start for _node, start, _end in monitor.gaps}
    )
    for since in sinces:
        derived, eager = recorder.means(since)
        assert derived == eager, f"{name}: means from {since} differ"
    assert any(recorder.means(since)[1] != (0.0, 0.0) for since in sinces)
    for derived, eager in (
        (monitor.cpu_timelines, recorder.cpu),
        (monitor.mem_timelines, recorder.mem),
    ):
        assert sorted(derived) == sorted(eager)
        for node_id, timeline in derived.items():
            until = monitor.departed_nodes.get(node_id)
            assert (timeline.times, timeline.values) == (
                eager[node_id].times,
                eager[node_id].values,
            )
            for since in sinces:
                assert timeline.mean(since, until=until) == eager[node_id].mean(
                    since, until=until
                )


def test_eager_reference_sees_departures_and_gaps():
    """Not vacuous: the runs depart nodes and drop samples in gaps."""
    _result, churn = churn_off_grid()
    assert len(churn.monitor.departed_nodes) == 2
    _result, mixed = generated_mixed_plan()
    assert mixed.monitor.gaps
    assert len(mixed.monitor.node_samples) < len(mixed.samples)


@pytest.mark.parametrize("name", sorted(PINS))
def test_watching_changes_nothing_the_monitor_keeps(name):
    watched_result, watched = RUNS[name]()
    result, unwatched = RUNS[name](watch=False)
    assert not unwatched.bus.wants("node")
    assert len(watched.samples) == PINS[name][0] and not unwatched.samples
    assert (result.succeeded, result.duration) == (True, watched_result.duration)
    w, u = watched.monitor, unwatched.monitor
    assert u.node_samples._records == w.node_samples._records
    assert u.departed_nodes == w.departed_nodes
    assert u.gaps == w.gaps
    key = "elastic.capacity_changes"
    assert unwatched.bus.counters.get(key) == watched.bus.counters.get(key)
    assert u.mean_cpu_utilization() == w.mean_cpu_utilization()
    assert u.mean_memory_utilization() == w.mean_memory_utilization()


def test_unwatched_runs_count_capacity_changes():
    """Not vacuous: joins and departures are counted with nobody watching."""
    _result, churn = churn_off_grid(watch=False)
    assert churn.bus.counters["elastic.capacity_changes"] == 4
    assert len(churn.monitor.departed_nodes) == 2


def test_nothing_subscribes_to_node_samples_by_default(tmp_path):
    assert SimCluster(seed=0).telemetry.wants("node") is False
    with LocalProcessBackend(workspace=str(tmp_path), slots=1) as backend:
        assert backend.telemetry.wants("node") is False


@pytest.mark.parametrize("name", sorted(PINS))
def test_unwatched_run_builds_no_sample_object(name, monkeypatch):
    built = []

    def refuse(*args):
        # A sim process that raises only fails its own event, so the
        # calls are recorded as well.
        built.append(args)
        raise AssertionError("a per-sample object was built with nobody watching")

    monkeypatch.setattr(slave_monitor, "NodeSampled", refuse)
    monkeypatch.setattr(slave_monitor, "NodeStats", refuse)
    result, unwatched = RUNS[name](watch=False)
    assert result.succeeded
    assert not built
    assert len(unwatched.monitor.node_samples) > 0


if __name__ == "__main__" and "--record" in sys.argv:
    for name in sorted(RUNS):
        _result, count, digest = observe(name)
        print(f'    "{name}": ({count}, "{digest}"),')
