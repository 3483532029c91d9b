"""Attempt-sequence pins for the app master's attempt lifecycle.

Each scenario hashes the full attempt sequence of one run -- for every
entry of ``result.task_stats`` the tuple ``(task, attempt, node, start,
end, failed, failure_kind, speculative, wave)`` with times at full
``repr`` precision and the job id masked -- plus the run's
:class:`RunOutcome` digest.  The outcome digest alone hides the
attempt order; these pins catch a refactor that reorders admissions,
rollbacks or settlements.

The tuple lists live next to the hashes in ``attempt_pins.json`` so a
drifted pin names the first divergent attempt.  Re-record (in a commit
that says why) with::

    PYTHONPATH=src python -m tests.yarn.test_attempt_pins --record
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.backends.sim import SimBackend
from repro.experiments.parallel import RunRequest, execute_request
from tests.faults.test_determinism import (
    DENSE_ELASTIC_KNOBS,
    FAULT_KNOBS,
    NETWORK_FAULT_DIGEST,
    NETWORK_KNOBS,
)

FIXTURE = Path(__file__).with_name("attempt_pins.json")

SCENARIOS = {
    # Crashes, container kills and a degraded node with speculation on.
    "legacy-speculation": RunRequest.build(
        "terasort", 1, num_blocks=8, num_reducers=4, faults=FAULT_KNOBS
    ),
    # Kills an attempt before launch and cancels its pending grant.
    "elastic-dense-seed4": RunRequest.build(
        "terasort", 4, num_blocks=24, num_reducers=8, faults=DENSE_ELASTIC_KNOBS
    ),
    "network": RunRequest.build(
        "terasort", 1, num_blocks=8, num_reducers=4, faults=NETWORK_KNOBS
    ),
    # Aggressive tuning puts the wave gate in play.
    "aggressive": RunRequest.build(
        "terasort", 1, num_blocks=8, num_reducers=4, tuning="aggressive"
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
    rows = attempt_rows(result)
    return {
        "outcome_digest": outcome.digest(),
        "attempts_sha256": rows_digest(rows),
        "attempts": rows,
    }


def first_divergence(expected, actual):
    """Describe the first attempt at which two row lists part ways."""
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return f"attempt #{index} differs:\n  pinned: {want}\n  now:    {got}"
    index = min(len(expected), len(actual))
    extra = expected[index:] or actual[index:]
    side = "pinned" if len(expected) > len(actual) else "now"
    return f"attempt #{index} exists only {side}: {extra[0]}"


@pytest.fixture(scope="module")
def pins():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_attempt_sequence_is_pinned(name, pins):
    pinned = pins[name]
    got = run_scenario(SCENARIOS[name])
    # The fixture's own rows must still hash to its pin.
    assert rows_digest(pinned["attempts"]) == pinned["attempts_sha256"]
    if got["attempts_sha256"] != pinned["attempts_sha256"]:
        pytest.fail(
            f"{name}: attempt sequence drifted "
            f"({pinned['attempts_sha256'][:12]} -> {got['attempts_sha256'][:12]}); "
            + first_divergence(pinned["attempts"], got["attempts"])
        )
    assert got["outcome_digest"] == pinned["outcome_digest"]


def test_network_pin_agrees_with_the_determinism_suite(pins):
    assert pins["network"]["outcome_digest"] == NETWORK_FAULT_DIGEST


def test_first_divergence_names_the_attempt():
    a = [["m0", 1], ["m1", 1], ["m2", 1]]
    assert first_divergence(a, [["m0", 1], ["m1", 2], ["m2", 1]]) == (
        "attempt #1 differs:\n  pinned: ['m1', 1]\n  now:    ['m1', 2]"
    )
    assert first_divergence(a, a[:2]) == "attempt #2 exists only pinned: ['m2', 1]"
    assert first_divergence(a[:1], a) == "attempt #1 exists only now: ['m1', 1]"


def record() -> None:
    pins = {name: run_scenario(SCENARIOS[name]) for name in sorted(SCENARIOS)}
    # One attempt per line keeps the fixture diffable.
    blocks = []
    for name, pin in pins.items():
        rows = ",\n   ".join(json.dumps(row) for row in pin["attempts"])
        blocks.append(
            f' {json.dumps(name)}: {{\n'
            f'  "outcome_digest": {json.dumps(pin["outcome_digest"])},\n'
            f'  "attempts_sha256": {json.dumps(pin["attempts_sha256"])},\n'
            f'  "attempts": [\n   {rows}\n  ]\n }}'
        )
    FIXTURE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    for name, pin in pins.items():
        print(f"{name}: {len(pin['attempts'])} attempts {pin['attempts_sha256'][:12]}")


if __name__ == "__main__" and "--record" in sys.argv:
    record()
