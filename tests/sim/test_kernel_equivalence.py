"""Golden-digest equivalence tests for the simulation kernel.

The kernel hot paths (incremental max-min recomputes, in-place rates,
epoch-cached utilization, deque FIFOs, inlined event loop) were
optimized under a hard constraint: **byte-identical event ordering**.
These tests pin the optimized kernel to run digests recorded from the
seed (pre-optimization) kernel, across three seeds and three workload
profiles, fault-free and under a fixed fault scenario.  The digests are
the ``kernel/`` entries of ``tests/pins.json``.

If any of these digests moves, a kernel change altered simulated
behaviour -- either fix the change or (for an intentional semantic
change) re-record the digests in a dedicated commit that says so.
"""

import pytest

from repro.experiments.parallel import RunRequest, combined_digest, run_requests
from tests.pins import check

#: Dataset shrink per case (blocks, reducers) -- matches the CLI
#: ``digest`` subcommand's fixed experiment so the fault-free digests
#: here are directly comparable to the CI determinism gate.
CASE_SHAPES = {
    "terasort": (8, 4),
    "wordcount-wikipedia": (6, 3),
    "bigram-freebase": (6, 3),
}

SEEDS = (1, 2, 3)

#: The fixed fault scenario: the plan itself is drawn worker-side from
#: the run's seeded ``("faults", "plan")`` RNG stream, so these knobs
#: plus a seed fully determine the injected faults.
FAULT_KNOBS = (("container_kills", 2), ("crashes", 1), ("degraded", 1), ("horizon", 240.0))

#: (case, seed) of each pinned run, fault-free and faulted.
CLEAN_RUNS = [(case, seed) for case in CASE_SHAPES for seed in SEEDS]
FAULTED_RUNS = [(case, seed) for case in ("terasort", "wordcount-wikipedia") for seed in SEEDS]


def _request(case: str, seed: int, faulted: bool) -> RunRequest:
    blocks, reducers = CASE_SHAPES[case]
    return RunRequest(
        case_name=case,
        seed=seed,
        num_blocks=blocks,
        num_reducers=reducers,
        faults=FAULT_KNOBS if faulted else None,
    )


@pytest.fixture(scope="module")
def clean_outcomes():
    requests = [_request(case, seed, faulted=False) for case, seed in CLEAN_RUNS]
    return dict(zip(CLEAN_RUNS, run_requests(requests, max_workers=1)))


@pytest.fixture(scope="module")
def faulted_outcomes():
    requests = [_request(case, seed, faulted=True) for case, seed in FAULTED_RUNS]
    return dict(zip(FAULTED_RUNS, run_requests(requests, max_workers=1)))


def test_fault_free_digests_match_seed_kernel(clean_outcomes):
    for (case, seed), outcome in clean_outcomes.items():
        check(f"kernel/clean/{case}/{seed}", outcome.digest())


def test_fault_free_runs_succeed(clean_outcomes):
    assert all(o.succeeded for o in clean_outcomes.values())


def test_fault_scenario_digests_match_seed_kernel(faulted_outcomes):
    for (case, seed), outcome in faulted_outcomes.items():
        check(f"kernel/faulted/{case}/{seed}", outcome.digest())


def test_fault_scenarios_actually_injected(faulted_outcomes):
    # Guard against the scenario silently degenerating to fault-free
    # (which would make the faulted digests vacuous).
    assert all(o.injected_faults for o in faulted_outcomes.values())


def test_cli_combined_digest_matches_seed_kernel(clean_outcomes):
    """Replicates ``python -m repro --replicas 2 digest`` exactly.

    The runs the fault-free fixture already made are reused; only the
    rest (the ``bbp`` case) run here.
    """
    from repro.cli import DIGEST_CASES

    requests = [
        RunRequest(case_name=name, seed=seed, num_blocks=blocks, num_reducers=reducers)
        for name, blocks, reducers in DIGEST_CASES
        for seed in (1, 2)
    ]
    outcomes = {o.request: o for o in clean_outcomes.values()}
    missing = [r for r in requests if r not in outcomes]
    outcomes.update(zip(missing, run_requests(missing, max_workers=1)))
    check("kernel/cli-digest", combined_digest([outcomes[r] for r in requests]))
