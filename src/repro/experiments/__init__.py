"""Experiment drivers reproducing the paper's evaluation (Section 8).

:mod:`repro.experiments.harness` provides :class:`SimCluster`, the
one-stop integration of simulator + cluster + HDFS + YARN + monitor,
and :func:`~repro.experiments.harness.run_tuned`, the seeded tuned-run
step; the sibling modules implement the per-figure experiment protocols.
"""

from repro.experiments.harness import SimCluster, run_tuned

__all__ = ["SimCluster", "run_tuned"]
