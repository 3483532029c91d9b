"""Fault-injection determinism across process-pool worker counts.

Fault scenarios travel inside :class:`RunRequest` as declarative knobs
and the plan is regenerated worker-side from the dedicated
``("faults", "plan")`` RNG stream, so a faulted run must hash
identically no matter how the requests are spread over workers.
"""

from repro.experiments.parallel import (
    RunRequest,
    combined_digest,
    run_requests,
)
from tests.pins import check

FAULT_KNOBS = {"crashes": 1, "container_kills": 2, "degraded": 1, "horizon": 35.0}


def faulted_request(tuning="none"):
    return RunRequest.build(
        "terasort", 1, num_blocks=8, num_reducers=4, tuning=tuning, faults=FAULT_KNOBS
    )


class TestFaultDigest:
    def test_serial_matches_pool(self):
        requests = [faulted_request()]
        serial = run_requests(requests, max_workers=1)
        pooled = run_requests(requests, max_workers=4)
        assert combined_digest(serial) == combined_digest(pooled)

    def test_outcome_records_scenario_and_recovery(self):
        (outcome,) = run_requests([faulted_request()], max_workers=1)
        assert outcome.succeeded
        assert outcome.killed_attempts >= 1
        assert outcome.injected_faults  # the plan is part of the digest
        assert dict(outcome.failure_reasons)

    def test_fault_knobs_change_the_digest(self):
        plain = RunRequest.build("terasort", 1, num_blocks=8, num_reducers=4)
        (a,) = run_requests([plain], max_workers=1)
        (b,) = run_requests([faulted_request()], max_workers=1)
        assert a.digest() != b.digest()


#: The network-fault scenario (terasort, seed 1, 8 blocks / 4 reducers).
#: ``tests/yarn/test_attempt_pins.py`` pins its outcome digest as
#: ``faults/network``: if that moves, a change altered the per-fetch
#: recovery path's simulated behaviour.
NETWORK_KNOBS = {
    "link_flaky": 1,
    "rack_partitions": 1,
    "link_degraded": 1,
    "horizon": 35.0,
}


def network_request(tuning="none"):
    return RunRequest.build(
        "terasort", 1, num_blocks=8, num_reducers=4, tuning=tuning,
        faults=NETWORK_KNOBS,
    )


class TestNetworkFaultDigest:
    def test_serial_matches_pool(self):
        requests = [network_request()]
        serial = run_requests(requests, max_workers=1)
        pooled = run_requests(requests, max_workers=4)
        assert combined_digest(serial) == combined_digest(pooled)

    def test_plan_replay_matches_knob_generation(self):
        """A ("plan", json) request replays the knob-generated scenario
        exactly (everything but the request itself is identical)."""
        from dataclasses import replace

        from repro.cluster.topology import ClusterSpec
        from repro.faults import generate_fault_plan, plan_to_json
        from repro.sim.rng import RngRegistry

        plan = generate_fault_plan(
            RngRegistry(1).stream("faults", "plan"),
            num_nodes=ClusterSpec().num_slaves,
            horizon=35.0,
            link_degraded=1,
            link_flaky=1,
            rack_partitions=1,
        )
        replay = RunRequest.build(
            "terasort", 1, num_blocks=8, num_reducers=4,
            faults={"plan": plan_to_json(plan)},
        )
        (from_knobs,) = run_requests([network_request()], max_workers=1)
        (from_plan,) = run_requests([replay], max_workers=1)
        assert from_plan.injected_faults == from_knobs.injected_faults
        # Same run in every respect but the request encoding.
        assert replace(from_plan, request=from_knobs.request) == from_knobs


ELASTIC_KNOBS = {
    "decommissions": 1,
    "joins": 1,
    "spot_preempts": 1,
    "horizon": 35.0,
}

DENSE_ELASTIC_KNOBS = {
    "decommissions": 2,
    "joins": 1,
    "spot_preempts": 3,
    "horizon": 35.0,
}

def elastic_requests():
    """The elastic-churn scenarios (terasort, seed 1; sparse = 8 blocks /
    4 reducers, dense = 24 blocks / 8 reducers), pinned as
    ``faults/elastic-sparse`` and ``faults/elastic-dense``.  If one
    moves, a change altered decommission draining, mid-run node
    registration, or the preempt grace-window migration path -- fix it
    or re-record in a dedicated commit that says so."""
    sparse = RunRequest.build(
        "terasort", 1, num_blocks=8, num_reducers=4, faults=ELASTIC_KNOBS
    )
    dense = RunRequest.build(
        "terasort", 1, num_blocks=24, num_reducers=8,
        faults=DENSE_ELASTIC_KNOBS,
    )
    return [sparse, dense]


class TestElasticFaultDigest:
    def test_serial_matches_pool(self):
        requests = elastic_requests()
        serial = run_requests(requests, max_workers=1)
        pooled = run_requests(requests, max_workers=4)
        assert combined_digest(serial) == combined_digest(pooled)

    def test_pinned_digests(self):
        sparse, dense = run_requests(elastic_requests(), max_workers=1)
        assert sparse.succeeded
        check("faults/elastic-sparse", sparse.digest())
        assert dense.succeeded
        check("faults/elastic-dense", dense.digest())

    def test_dense_churn_exercises_preemption(self):
        """The dense scenario reclaims nodes with work running: attempts
        are killed, yet every reduce commits and the job succeeds."""
        (_, dense) = run_requests(elastic_requests(), max_workers=1)
        assert dense.succeeded
        assert dense.killed_attempts >= 1
        assert dict(dense.failure_reasons).get("preempted", 0) >= 1
        assert len(dense.injected_faults) == 6
