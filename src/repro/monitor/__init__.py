"""Runtime monitoring: per-task and per-node statistics.

Mirrors the paper's monitor split: slave monitors gather task and node
statistics on each node manager; the central monitor aggregates them
and feeds the tuner (Figure 2).
"""

from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.slave_monitor import SlaveMonitor
from repro.monitor.statistics import NodeStats, TaskStats

__all__ = [
    "CentralMonitor",
    "NodeStats",
    "SlaveMonitor",
    "TaskStats",
]
