"""Discrete-event simulation engine.

This package provides the substrate on which the cluster, YARN, and
MapReduce models run:

- :mod:`repro.sim.engine` -- the event calendar and simulated clock.
- :mod:`repro.sim.events` -- events, timeouts, and generator-based
  processes (a deliberately small simpy-like kernel).
- :mod:`repro.sim.resources` -- max-min fair-shared resources (disks,
  NICs, CPUs) modelled as links carrying flows, plus counting
  semaphores for slot-style resources.
- :mod:`repro.sim.rng` -- deterministic random-stream management.

The engine is deterministic: given the same seed and the same sequence
of scheduling calls, two runs produce identical event orders (ties are
broken by a monotone sequence number).
"""

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Process, Timeout
from repro.sim.resources import FlowScheduler, Link, Semaphore
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "FlowScheduler",
    "Interrupt",
    "Link",
    "Process",
    "RngRegistry",
    "Semaphore",
    "Simulator",
    "Timeout",
    "derive_seed",
]
