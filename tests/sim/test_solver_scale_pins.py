"""Pinned digests of two runs that load the network flow solver heavily.

The kernel-equivalence pins run at 8x4 or 24x8 and never hold more than
27 network flows at once.  These two runs reach about 350 concurrent
flows.  The faulted one also partitions a rack, which parks its uplink
at ``FROZEN_CAPACITY`` (1e-9): there a water level plus ``_EPS`` is no
longer absorbed by rounding, so the allocator's epsilon comparisons
decide which flows freeze together.  A rewrite of the allocator must
leave both digests unchanged.

Print the current values with::

    PYTHONPATH=src python -m tests.sim.test_solver_scale_pins --record
"""

import sys

import pytest

from repro.experiments.parallel import RunRequest, execute_request

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

PINS = {
    "faulted_shuffle": (
        FAULTED_SHUFFLE,
        "457a850cc9a700c6f5223b52dd40b03f127ed1f47419a2acf4e9398214440bea",
    ),
    "wide_shuffle": (
        WIDE_SHUFFLE,
        "0b0988e9ce283d2d0f1dd0fc81fcfb70702ec16db49da18c22b5c892e85cceea",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_solver_heavy_run_digest_is_pinned(name):
    request, expected = PINS[name]
    outcome = execute_request(request)
    assert outcome.succeeded
    assert outcome.digest() == expected, f"{name} drifted from its pinned digest"


if __name__ == "__main__" and "--record" in sys.argv:
    for name, (request, _expected) in sorted(PINS.items()):
        print(name, execute_request(request).digest())
