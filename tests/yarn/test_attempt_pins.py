"""Attempt-sequence pins for the app master's attempt lifecycle.

Each scenario hashes the full attempt sequence of one run -- for every
entry of ``result.task_stats`` the tuple ``(task, attempt, node, start,
end, failed, failure_kind, speculative, wave)`` with times at full
``repr`` precision and the job id masked -- and pins the run's
:class:`RunOutcome` digest beside it.  The outcome digest alone hides
the attempt order; these pins catch a refactor that reorders
admissions, rollbacks or settlements.

The rows live next to their hash in the ``attempts/`` entries of
``tests/pins.json``, so a drifted pin names the first divergent
attempt.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.backends.sim import SimBackend
from repro.experiments.parallel import RunRequest, execute_request
from tests import pins
from tests.faults.test_determinism import (
    DENSE_ELASTIC_KNOBS,
    FAULT_KNOBS,
    NETWORK_KNOBS,
)
from tests.pins import check, first_divergence

#: name -> (the pin of the run's outcome digest, the run).
SCENARIOS = {
    # Crashes, container kills and a degraded node with speculation on.
    "legacy-speculation": (
        "faults/legacy-speculation",
        RunRequest.build("terasort", 1, num_blocks=8, num_reducers=4, faults=FAULT_KNOBS),
    ),
    # Kills an attempt before launch and cancels its pending grant.
    "elastic-dense-seed4": (
        "faults/elastic-dense-seed4",
        RunRequest.build(
            "terasort", 4, num_blocks=24, num_reducers=8, faults=DENSE_ELASTIC_KNOBS
        ),
    ),
    "network": (
        "faults/network",
        RunRequest.build("terasort", 1, num_blocks=8, num_reducers=4, faults=NETWORK_KNOBS),
    ),
    # Aggressive tuning puts the wave gate in play.
    "aggressive": (
        "tuning/aggressive",
        RunRequest.build("terasort", 1, num_blocks=8, num_reducers=4, tuning="aggressive"),
    ),
}


def attempt_rows(result):
    # Job ids count submissions per process; mask them so the rows do
    # not depend on which tests ran first.
    return [
        [
            str(replace(s.task_id, job_id="job")), s.attempt, s.node_id,
            repr(s.start_time), repr(s.end_time), s.failed, s.failure_kind,
            s.speculative, s.wave,
        ]
        for s in result.task_stats
    ]


def rows_digest(rows):
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


def run_scenario(request):
    """Run *request* through ``execute_request``; keep its JobResult too."""
    captured = []
    wait = SimBackend.wait

    def capturing_wait(self, handle):
        result = wait(self, handle)
        captured.append(result)
        return result

    SimBackend.wait = capturing_wait
    try:
        outcome = execute_request(request)
    finally:
        SimBackend.wait = wait
    (result,) = captured
    return outcome, attempt_rows(result)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_attempt_sequence_is_pinned(name):
    outcome_pin, request = SCENARIOS[name]
    outcome, rows = run_scenario(request)
    assert outcome.succeeded
    check(f"attempts/{name}", {"attempts_sha256": rows_digest(rows), "attempts": rows})
    check(outcome_pin, outcome.digest())
    # The manifest's own rows must still hash to its pin.
    pinned = pins.session.entries[f"attempts/{name}"]
    assert rows_digest(pinned["attempts"]) == pinned["attempts_sha256"]


def test_first_divergence_names_the_attempt():
    a = [["m0", 1], ["m1", 1], ["m2", 1]]
    assert first_divergence(a, [["m0", 1], ["m1", 2], ["m2", 1]]) == (
        'row #1 differs:\n  pinned: ["m1", 1]\n  now:    ["m1", 2]'
    )
    assert first_divergence(a, a[:2]) == 'row #2 exists only pinned: ["m2", 1]'
    assert first_divergence(a[:1], a) == 'row #1 exists only now: ["m1", 1]'
