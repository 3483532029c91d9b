"""The YARN model: resource manager, schedulers, node managers, app master.

MRONLINE's enabling system hook is YARN's container abstraction with
*variable-sized* allocations (Section 4): the scheduler here supports a
different memory/vcore grant per request, FIFO-with-priorities and
fair-share policies, and locality-preferring placement.
"""

from repro.yarn.app_master import LaunchGate, MRAppMaster
from repro.yarn.fair_scheduler import FairScheduler
from repro.yarn.node_manager import NodeManager
from repro.yarn.records import ContainerRequest, Priority, Resource
from repro.yarn.resource_manager import ResourceManager
from repro.yarn.scheduler import FifoScheduler, SchedulerBase

__all__ = [
    "ContainerRequest",
    "FairScheduler",
    "FifoScheduler",
    "LaunchGate",
    "MRAppMaster",
    "NodeManager",
    "Priority",
    "Resource",
    "ResourceManager",
    "SchedulerBase",
]
