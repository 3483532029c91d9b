"""Pinned outcomes of the tuner's quarantine (wave-void) paths.

No run-level digest reaches the code that voids a wave: the fault
determinism pins run untuned.  These pins cover the five tuned fault
scenarios that do reach it.  Each hashes the joined rule log, the job
duration ``repr`` and the recommended configuration, and counts the
voided waves per reason from the rule-log lines; the ``quarantine/``
entries of ``tests/pins.json`` hold both.  If one moves, a change
altered which waves the tuner discards or what it did next.
"""

import hashlib

import pytest

from tests.faults.tuned_scenarios import QUARANTINE_SCENARIOS
from tests.pins import check

#: Rule-log marker of a voided wave, per reason.
VOID_MARKERS = {
    "fetch": "samples fault-inflated)",
    "capacity": "(capacity-shifted:",
    "outage": "(outage-shifted:",
    "crash": "voided by tuner crash",
}


def session_digest(run) -> str:
    log = run.tuner.rule_log(run.spec.job_id)
    config = sorted(run.tuner.recommended_config(run.spec.job_id).as_dict().items())
    h = hashlib.sha256("\n".join(log).encode())
    h.update(repr(run.result.duration).encode())
    h.update(repr(config).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(QUARANTINE_SCENARIOS))
def test_quarantine_pin(name):
    run = QUARANTINE_SCENARIOS[name]()
    assert run.result.succeeded
    log = run.tuner.rule_log(run.spec.job_id)
    voids = {
        reason: sum(marker in line for line in log)
        for reason, marker in VOID_MARKERS.items()
    }
    check(f"quarantine/{name}", {"voids": voids, "sha256": session_digest(run)})
