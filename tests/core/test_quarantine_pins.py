"""Pinned outcomes of the tuner's quarantine (wave-void) paths.

No run-level digest reaches the code that voids a wave: the fault
determinism pins run untuned.  These pins cover the five tuned fault
scenarios that do reach it.  Each hashes the joined rule log, the job
duration ``repr`` and the recommended configuration, and counts the
voided waves per reason from the rule-log lines.  If one moves, a
change altered which waves the tuner discards or what it did next.
"""

import hashlib

import pytest

from tests.faults.tuned_scenarios import QUARANTINE_SCENARIOS

#: Rule-log marker of a voided wave, per reason.
VOID_MARKERS = {
    "fetch": "samples fault-inflated)",
    "capacity": "(capacity-shifted:",
    "outage": "(outage-shifted:",
    "crash": "voided by tuner crash",
}

#: scenario -> (per-reason void counts, sha256 of the session outcome).
PINS = {
    "link_flaky": (
        {"fetch": 1, "capacity": 0, "outage": 0, "crash": 0},
        "f99c7074bef3f40eba301628b0c67bb2ab17fcc7a7289e844dc71ec17988a1d0",
    ),
    "full_churn": (
        {"fetch": 0, "capacity": 1, "outage": 0, "crash": 0},
        "a82a5e44684a6efa6750d449a2a89b6f4335e57e525c04d53002848ed3212edf",
    ),
    "monitor_outage": (
        {"fetch": 0, "capacity": 0, "outage": 3, "crash": 0},
        "88841a9e4fa7f9c0c1594802f45d3c30e08f4630532638dc65c812b2593a7dec",
    ),
    "crash_mid_search": (
        {"fetch": 0, "capacity": 0, "outage": 0, "crash": 1},
        "3207ad6d6018a74927103683b385120977cb186c78460bb0c8bd16b9f5227aa2",
    ),
    "crash_bootstrap": (
        {"fetch": 0, "capacity": 0, "outage": 0, "crash": 0},
        "5725d9b486e36a96cafb852ce9326d9df4098350044f0480c9f5b199a0c4f3ce",
    ),
}


def session_digest(run) -> str:
    log = run.tuner.rule_log(run.spec.job_id)
    config = sorted(run.tuner.recommended_config(run.spec.job_id).as_dict().items())
    h = hashlib.sha256("\n".join(log).encode())
    h.update(repr(run.result.duration).encode())
    h.update(repr(config).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_quarantine_pin(name):
    run = QUARANTINE_SCENARIOS[name]()
    assert run.result.succeeded
    log = run.tuner.rule_log(run.spec.job_id)
    voids = {
        reason: sum(marker in line for line in log)
        for reason, marker in VOID_MARKERS.items()
    }
    counts, digest = PINS[name]
    assert voids == counts
    assert session_digest(run) == digest


def test_every_scenario_is_pinned():
    assert set(PINS) == set(QUARANTINE_SCENARIOS)
