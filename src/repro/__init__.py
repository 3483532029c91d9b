"""MRONLINE reproduction: online MapReduce performance tuning.

A full Python reproduction of "MRONLINE: MapReduce Online Performance
Tuning" (Li et al., HPDC 2014) on a deterministic discrete-event
simulation of a YARN cluster.

Layering (bottom-up):

- :mod:`repro.sim` -- discrete-event engine and fair-shared resources
- :mod:`repro.cluster` -- nodes, disks, network, containers
- :mod:`repro.hdfs` -- blocks, replication, locality
- :mod:`repro.yarn` -- resource manager, schedulers, app master
- :mod:`repro.mapreduce` -- task engine with Hadoop spill semantics
- :mod:`repro.monitor` -- slave/central monitors
- :mod:`repro.core` -- **MRONLINE itself**: parameter space, gray-box
  hill climbing, tuning rules, dynamic configurator, online tuner
- :mod:`repro.workloads` -- the paper's Table-3 benchmark suite
- :mod:`repro.baselines` -- offline-guide / Gunther / Starfish
- :mod:`repro.experiments` -- per-figure evaluation protocols
"""

__version__ = "1.0.0"
__all__ = ["__version__"]
