"""Pinned outcomes of the experiment drivers outside ``execute_request``.

The run digests pin what :func:`execute_request` produces.  The other
drivers -- the expedited and single-run protocols, tournament lanes,
traced runs, the fault experiment, the multi-tenant co-runs and the
what-if advisor -- build their clusters and tuners themselves, so these
pins hash their results directly: every field of the protocol results,
the tournament lanes' search traces and times, the traced runs' JSONL
digests, the fault experiment's plans and digest, and the repr of the
multi-tenant outcomes and the what-if advice.  A refactor of the run
path must leave every one unchanged.
"""

import dataclasses
import hashlib

import pytest

from repro.core.configuration import Configuration
from repro.core.hill_climbing import HillClimbSettings
from repro.core.whatif import CategoryOneAdvisor
from repro.experiments import expedited, multitenant
from repro.experiments.faults import run_fault_experiment
from repro.experiments.single_run import run_single_run_case
from repro.experiments.tournament import TournamentEntry, run_tournament_entry
from repro.experiments.trace import run_traced_case
from repro.faults import FAULT_KINDS
from repro.workloads.datasets import teragen_dataset
from repro.workloads.suite import case_by_name, shrink_case
from repro.workloads.terasort import terasort_profile
from tests.pins import check, pinned_ids

#: The expedited protocol's hill-climb budget in ``test_protocols.py``.
TINY_HC = HillClimbSettings(m=6, n=4, global_search_limit=1)


def small_terasort():
    return shrink_case(case_by_name("terasort"), num_blocks=8, num_reducers=4)


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def plain(value):
    """A configuration as sorted pairs; everything else unchanged."""
    if isinstance(value, Configuration):
        return sorted(value.as_dict().items())
    return value


def fields_digest(result) -> str:
    return sha(
        [(f.name, plain(getattr(result, f.name))) for f in dataclasses.fields(result)]
    )


def expedited_pin() -> str:
    expedited._case_cache.clear()
    try:
        result = expedited.run_expedited_case(small_terasort(), 1, hill_climb=TINY_HC)
    finally:
        expedited._case_cache.clear()
    return fields_digest(result)


def single_run_pin() -> str:
    return fields_digest(run_single_run_case(small_terasort(), 1))


def tournament_pin(backend: str) -> str:
    lane = run_tournament_entry(
        TournamentEntry(backend, "terasort", 1, num_blocks=8, num_reducers=4)
    )
    return sha(
        (lane.succeeded, lane.tuning_job_time, lane.tuned_job_time, lane.traces)
    )


def trace_pin(tuning: str) -> str:
    with pinned_ids():
        run = run_traced_case(
            "wordcount-wikipedia", 1, tuning=tuning, num_blocks=4, num_reducers=2
        )
    return run.digest()


def faults_pin() -> str:
    report = run_fault_experiment(
        "terasort",
        1,
        levels=("none", "low"),
        num_blocks=8,
        num_reducers=4,
        max_workers=1,
        kinds=FAULT_KINDS,
    )
    return sha((report.plans_json, report.digest))


def multitenant_pin() -> str:
    multitenant._experiment_cache.clear()
    try:
        return sha(multitenant.run_multitenant_experiment(1))
    finally:
        multitenant._experiment_cache.clear()


def whatif_pin() -> str:
    advisor = CategoryOneAdvisor(seed=1)
    return sha(advisor.advise(terasort_profile(), teragen_dataset(2.0)))


DRIVERS = {
    "expedited": expedited_pin,
    "single-run": single_run_pin,
    "tournament-hill_climb": lambda: tournament_pin("hill_climb"),
    "tournament-spsa": lambda: tournament_pin("spsa"),
    "trace-none": lambda: trace_pin("none"),
    "trace-aggressive": lambda: trace_pin("aggressive"),
    "faults-all-kinds": faults_pin,
    "multitenant": multitenant_pin,
    "whatif": whatif_pin,
}


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_pin(name):
    check(f"drivers/{name}", DRIVERS[name]())
