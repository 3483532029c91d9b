"""Pinned digests of two runs that load the network flow solver heavily.

The kernel-equivalence pins run at 8x4 or 24x8 and never hold more than
27 network flows at once.  These two runs reach about 350 concurrent
flows.  The faulted one also partitions a rack, which parks its uplink
at ``FROZEN_CAPACITY`` (1e-9): there a water level plus ``_EPS`` is no
longer absorbed by rounding, so the allocator's epsilon comparisons
decide which flows freeze together.  A rewrite of the allocator must
leave both digests unchanged.

Each run also caps how often its network scheduler solves.  A scheduler
solves once per settle point, not at every mutation as the eager
scheduler before it did; here that reads ~0.6x the eager count.  The
wide run parks reducers on the reduce ramp-up limit, so it also caps
its executed events: an attempt settle rechecks every parked reducer in
one event, where it once woke each in its own; that reads ~0.63x.
"""

import pytest

from repro.backends.sim import SimBackend
from repro.experiments.parallel import RunRequest, execute_request
from repro.sim import resources
from repro.sim.resources import FlowScheduler
from tests.pins import check

#: Shuffle-heavy TeraSort under a degraded link, a flaky link and a rack
#: partition, tuned conservatively (the shape of the ``shuffle-faults``
#: benchmark workload).
FAULTED_SHUFFLE = RunRequest.build(
    "terasort",
    1,
    tuning="conservative",
    num_blocks=100,
    num_reducers=25,
    faults={"link_degraded": 1, "link_flaky": 1, "rack_partitions": 1, "horizon": 200.0},
)

#: A fault-free TeraSort wide enough that hundreds of fetches overlap.
WIDE_SHUFFLE = RunRequest.build("terasort", 1, num_blocks=400, num_reducers=100)

RUNS = {"faulted_shuffle": FAULTED_SHUFFLE, "wide_shuffle": WIDE_SHUFFLE}


#: ``_fill_rates`` calls of the ``net`` scheduler per run (seed 1) when
#: every scheduler mutation solved at once.
EAGER_NET_SOLVES = {"faulted_shuffle": 5228, "wide_shuffle": 4703}

#: Ceiling on the network solves, as a fraction of the eager count.
MAX_SOLVE_RATIO = 0.7

#: ``sim.events_executed`` of the wide run (seed 1) when a settle woke
#: each parked reducer in its own event.
WAKEUP_EVENTS = 41872

#: Ceiling on the wide run's events, as a fraction of that count.
MAX_EVENT_RATIO = 0.8


def count_solves(monkeypatch) -> dict:
    """Count ``_fill_rates`` calls by the name of the scheduler making them."""
    calls: dict = {}
    fill = resources._fill_rates
    refresh = FlowScheduler._refresh_rates
    owner = [None]

    def counting_fill(active, counts):
        calls[owner[0]] = calls.get(owner[0], 0) + 1
        fill(active, counts)

    def tagged_refresh(self):
        owner[0] = self.name
        refresh(self)

    monkeypatch.setattr(resources, "_fill_rates", counting_fill)
    monkeypatch.setattr(FlowScheduler, "_refresh_rates", tagged_refresh)
    return calls


def count_events(monkeypatch) -> list:
    """Record ``events_executed`` of each simulator a SimBackend waits on."""
    events: list = []
    wait = SimBackend.wait

    def counting_wait(self, handle):
        result = wait(self, handle)
        events.append(self.cluster.sim.events_executed)
        return result

    monkeypatch.setattr(SimBackend, "wait", counting_wait)
    return events


@pytest.mark.parametrize("name", sorted(RUNS))
def test_solver_heavy_run_digest_is_pinned(name):
    outcome = execute_request(RUNS[name])
    assert outcome.succeeded
    check(f"solver/{name}", outcome.digest())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_network_solves_stay_under_ceiling(name, monkeypatch):
    solves = count_solves(monkeypatch)
    assert execute_request(RUNS[name]).succeeded
    ceiling = MAX_SOLVE_RATIO * EAGER_NET_SOLVES[name]
    assert solves["net"] <= ceiling, (
        f"{name}: {solves['net']} network solves, over the ceiling of {ceiling:.0f} "
        f"({MAX_SOLVE_RATIO}x the eager scheduler's {EAGER_NET_SOLVES[name]})"
    )


def test_parked_reducers_cost_one_event_per_settle(monkeypatch):
    events = count_events(monkeypatch)
    assert execute_request(WIDE_SHUFFLE).succeeded
    (executed,) = events
    ceiling = MAX_EVENT_RATIO * WAKEUP_EVENTS
    assert executed <= ceiling, (
        f"wide_shuffle: {executed} events, over the ceiling of {ceiling:.0f} "
        f"({MAX_EVENT_RATIO}x the {WAKEUP_EVENTS} of a wakeup per parked reducer)"
    )
