"""Pinned node-sample streams of three monitored runs.

Each pin hashes every ``NodeSampled`` event of one run in bus order:
the ``repr`` of the event time, the node id and each
:class:`~repro.monitor.statistics.NodeStats` field.  The runs join
nodes off the 5 s sampling grid, drain and preempt nodes, degrade and
partition the fabric, and black out the central monitor, all with LATE
speculation on.  How the slave monitors are scheduled, which nodes they
sample and how NIC utilization is read must leave every stream
unchanged.

Print the current values with::

    PYTHONPATH=src python -m tests.monitor.test_sample_pins --record
"""

import dataclasses
import hashlib
import sys

import pytest

from repro.cluster.topology import ClusterSpec
from repro.experiments.harness import SimCluster
from repro.experiments.parallel import RunRequest, build_request, run_request
from repro.faults import Fault, FaultPlan
from repro.telemetry.events import NodeSampled
from repro.workloads.suite import case_by_name, make_job_spec, shrink_case
from repro.yarn.app_master import FaultToleranceSettings, SpeculationSettings


def _collect(bus):
    samples = []
    bus.subscribe(
        lambda ev: samples.append(ev) if isinstance(ev, NodeSampled) else None,
        categories=("node",),
    )
    return samples


def _stream(samples):
    return [(ev.time, *dataclasses.astuple(ev.stats)) for ev in samples]


def churn_off_grid():
    """6 nodes; joins at 1.3 s and 7.9 s, a decommission, a spot preempt."""
    sc = SimCluster(
        seed=2,
        cluster_spec=ClusterSpec(num_slaves=6, racks=(3, 3)),
        fault_tolerance=FaultToleranceSettings(speculation=SpeculationSettings()),
    )
    samples = _collect(sc.telemetry)
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
    return result, samples


def _request_run(request):
    backend, _plan = build_request(request)
    samples = _collect(backend.telemetry)
    result, _recommended = run_request(backend, request)
    return result, samples


def shuffle_faults():
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
        )
    )


def generated_mixed_plan():
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
        )
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


def observe(name):
    result, samples = RUNS[name]()
    stream = _stream(samples)
    digest = hashlib.sha256(repr(stream).encode("utf-8")).hexdigest()
    return result, len(stream), digest


@pytest.mark.parametrize("name", sorted(PINS))
def test_node_sample_stream_is_pinned(name):
    result, count, digest = observe(name)
    assert result.succeeded
    assert (count, digest) == PINS[name], f"{name} sample stream drifted"


if __name__ == "__main__" and "--record" in sys.argv:
    for name in sorted(RUNS):
        _result, count, digest = observe(name)
        print(f'    "{name}": ({count}, "{digest}"),')
