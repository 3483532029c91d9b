"""MRONLINE's core: the online tuner.

This package implements the paper's primary contribution:

- :mod:`repro.core.parameters` -- the tunable parameter space (Table 2)
  with defaults, ranges, and unit-interval encodings.
- :mod:`repro.core.configuration` -- configuration objects, validation,
  and the cross-parameter dependency clamps.
- :mod:`repro.core.sampling` -- (weighted) Latin hypercube sampling.
- :mod:`repro.core.cost` -- the Equation-1 cost function.
- :mod:`repro.core.neighborhood` -- search-neighborhood geometry.
- :mod:`repro.core.optimizers` -- the pluggable search-backend protocol
  (hill climber, SPSA, random search, pure LHS) behind the tuner.
- :mod:`repro.core.hill_climbing` -- Algorithm 1, the gray-box smart
  hill-climbing search.
- :mod:`repro.core.rules` -- the Section-6 tuning rules.
- :mod:`repro.core.configurator` -- the dynamic configurator exposing
  the Table-1 API.
- :mod:`repro.core.tuner` -- the online tuner daemon (monitor -> tuner
  -> configurator loop) with aggressive and conservative strategies.
- :mod:`repro.core.knowledge_base` -- cross-run tuning knowledge base.
"""

from repro.core.configuration import Configuration, enforce_dependencies
from repro.core.hill_climbing import GrayBoxHillClimber, HillClimbSettings
from repro.core.knowledge_base import TuningKnowledgeBase
from repro.core.optimizers import (
    OPTIMIZER_BACKENDS,
    Optimizer,
    WaveOptimizer,
    make_optimizer,
)
from repro.core.parameters import PARAMETER_SPACE, ParameterSpace, ParamSpec
from repro.core.sampling import latin_hypercube, weighted_latin_hypercube

# The configurator, cost function, and tuner reference task/job types from
# repro.mapreduce, which itself uses repro.core.configuration -- import
# them lazily (PEP 562) so `import repro.core` works from either side.
_LAZY = {
    "task_cost": ("repro.core.cost", "task_cost"),
    "DynamicConfigurator": ("repro.core.configurator", "DynamicConfigurator"),
    "OnlineTuner": ("repro.core.tuner", "OnlineTuner"),
    "TunerSettings": ("repro.core.tuner", "TunerSettings"),
    "TuningStrategy": ("repro.core.tuner", "TuningStrategy"),
    "CategoryOneAdvisor": ("repro.core.whatif", "CategoryOneAdvisor"),
    "CategoryOneCandidate": ("repro.core.whatif", "CategoryOneCandidate"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "Configuration",
    "DynamicConfigurator",
    "GrayBoxHillClimber",
    "HillClimbSettings",
    "OPTIMIZER_BACKENDS",
    "OnlineTuner",
    "Optimizer",
    "PARAMETER_SPACE",
    "ParamSpec",
    "ParameterSpace",
    "TunerSettings",
    "WaveOptimizer",
    "make_optimizer",
    "TuningKnowledgeBase",
    "TuningStrategy",
    "enforce_dependencies",
    "latin_hypercube",
    "task_cost",
    "weighted_latin_hypercube",
]
