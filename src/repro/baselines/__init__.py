"""Comparison baselines for the evaluation.

The stock YARN defaults are a bare
:class:`~repro.core.configuration.Configuration`, and uniform random
search is :mod:`repro.core.optimizers.random_search`.

* :mod:`repro.baselines.offline_guide` -- the static expert
  configuration an administrator derives from a vendor tuning guide
  (the paper compares against Cloudera's guide).
* :mod:`repro.baselines.gunther` -- a genetic-algorithm offline tuner
  in the style of Gunther [25], one full test run per configuration.
* :mod:`repro.baselines.starfish` -- a Starfish-style profile + what-if
  + cost-based-optimizer pipeline [15].
"""

from repro.baselines.gunther import GeneticTuner, GuntherSettings
from repro.baselines.offline_guide import offline_guide_config
from repro.baselines.starfish import (
    AnalyticWhatIfEngine,
    CostBasedOptimizer,
    JobProfile,
    starfish_tune,
)

__all__ = [
    "AnalyticWhatIfEngine",
    "CostBasedOptimizer",
    "GeneticTuner",
    "GuntherSettings",
    "JobProfile",
    "offline_guide_config",
    "starfish_tune",
]
