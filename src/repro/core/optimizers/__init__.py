"""Pluggable optimizer backends behind one propose/observe protocol.

The online tuner drives any backend registered here through the
:class:`~repro.core.optimizers.base.Optimizer` protocol:

* ``hill_climb`` -- the paper's gray-box smart hill climber
  (:class:`repro.core.hill_climbing.GrayBoxHillClimber`, Algorithm 1);
* ``spsa`` -- SPSA-style noisy gradient descent with parameter-scaled
  perturbations (:mod:`repro.core.optimizers.spsa`);
* ``random`` -- uniform random search
  (:mod:`repro.core.optimizers.random_search`);
* ``lhs`` -- pure Latin-hypercube waves, no local phase
  (:mod:`repro.core.optimizers.lhs`).

Backends are raced on identical seeds by the tuner tournament
(``benchmarks/test_ablation_optimizer_tournament.py``); CI gates the
hill climber's pinned best cost and each backend's serial-vs-pool
digest.  ``docs/optimizers.md`` documents the protocol, each backend's
knobs, and how to add a new one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.optimizers.base import (
    INFEASIBLE_RADIUS,
    Optimizer,
    Sample,
    SearchPhase,
    WaveOptimizer,
    next_sample_id,
    uniform_sample,
)
from repro.core.parameters import ParameterSpace

#: Registered backend names, in tournament order.  ``hill_climb`` is
#: the default everywhere and reproduces the pre-protocol behaviour
#: byte-identically.
OPTIMIZER_BACKENDS = ("hill_climb", "spsa", "random", "lhs")

DEFAULT_OPTIMIZER = "hill_climb"


def make_optimizer(
    name: str,
    space: ParameterSpace,
    rng: np.random.Generator,
    settings=None,
    seed_point: Optional[np.ndarray] = None,
) -> Optimizer:
    """Instantiate backend *name* over *space*.

    *settings* is the backend's own settings object (``None`` = that
    backend's defaults); a settings object built for a different
    backend is rejected rather than silently ignored.  The imports are
    local so ``repro.core.optimizers`` can be imported while
    ``repro.core.hill_climbing`` (which imports :mod:`.base`) is still
    initializing.
    """
    if name == "hill_climb":
        from repro.core.hill_climbing import GrayBoxHillClimber, HillClimbSettings

        _check_settings(name, settings, HillClimbSettings)
        return GrayBoxHillClimber(space, rng, settings, seed_point=seed_point)
    if name == "spsa":
        from repro.core.optimizers.spsa import SpsaOptimizer, SpsaSettings

        _check_settings(name, settings, SpsaSettings)
        return SpsaOptimizer(space, rng, settings, seed_point=seed_point)
    if name == "random":
        from repro.core.optimizers.random_search import (
            RandomSearchOptimizer,
            RandomSearchSettings,
        )

        _check_settings(name, settings, RandomSearchSettings)
        return RandomSearchOptimizer(space, rng, settings, seed_point=seed_point)
    if name == "lhs":
        from repro.core.optimizers.lhs import LhsSettings, PureLhsOptimizer

        _check_settings(name, settings, LhsSettings)
        return PureLhsOptimizer(space, rng, settings, seed_point=seed_point)
    raise ValueError(
        f"unknown optimizer backend {name!r}, want one of {OPTIMIZER_BACKENDS}"
    )


def _check_settings(name: str, settings, expected: type) -> None:
    if settings is not None and not isinstance(settings, expected):
        raise TypeError(
            f"backend {name!r} expects {expected.__name__} settings, "
            f"got {type(settings).__name__}"
        )


__all__ = [
    "DEFAULT_OPTIMIZER",
    "INFEASIBLE_RADIUS",
    "OPTIMIZER_BACKENDS",
    "Optimizer",
    "Sample",
    "SearchPhase",
    "WaveOptimizer",
    "make_optimizer",
    "next_sample_id",
    "uniform_sample",
]
