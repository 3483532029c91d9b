"""The simulator behind the :class:`~repro.backends.base.Backend` protocol.

:class:`SimBackend` is a *thin* adapter over
:class:`~repro.experiments.harness.SimCluster`: construction forwards
the exact constructor arguments in the exact order, submission routes
through ``SimCluster.submit``, and the tuner attachment delegates to
:meth:`OnlineTuner.submit` verbatim.  Nothing here consumes an extra
random draw or schedules an extra event, so every pinned run digest
(fault-free, network-fault, elastic) is byte-identical to the
pre-protocol wiring -- the CI determinism gates prove it on every push.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.experiments.harness import SimCluster
from repro.mapreduce.jobspec import JobSpec
from repro.yarn.app_master import ConfigProvider, JobResult, LaunchGate, MRAppMaster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import ClusterSpec
    from repro.monitor.central_monitor import CentralMonitor
    from repro.monitor.statistics import TaskStats
    from repro.telemetry.bus import TelemetryBus
    from repro.yarn.app_master import FaultToleranceSettings


class SimJobHandle:
    """A submitted simulated job: wraps its app master."""

    def __init__(self, am: MRAppMaster) -> None:
        self.am = am
        self.spec: JobSpec = am.spec

    @property
    def stats_listeners(self) -> List[Callable[["TaskStats"], None]]:
        return self.am.stats_listeners

    def add_completion_callback(
        self, callback: Callable[[JobResult], None]
    ) -> None:
        self.am.completion.add_callback(lambda ev: callback(ev.value))


class SimBackend:
    """Execute jobs on the deterministic discrete-event simulator.

    Accepts either a pre-built :class:`SimCluster` (``cluster=``) or the
    ``SimCluster`` constructor keywords.  All cluster surface --
    ``hdfs``, ``rm``, ``inject_faults`` -- stays reachable through
    :attr:`cluster` for protocols that need simulator specifics.
    """

    name = "sim"

    def __init__(
        self,
        seed: int = 0,
        cluster_spec: Optional["ClusterSpec"] = None,
        scheduler: str = "fifo",
        start_monitors: bool = True,
        fault_tolerance: Optional["FaultToleranceSettings"] = None,
        cluster: Optional[SimCluster] = None,
    ) -> None:
        self.seed = seed
        if cluster is not None:
            self.cluster = cluster
        else:
            self.cluster = SimCluster(
                seed=seed,
                cluster_spec=cluster_spec,
                scheduler=scheduler,
                start_monitors=start_monitors,
                fault_tolerance=fault_tolerance,
            )

    # -- convenience passthroughs ---------------------------------------
    @property
    def sim(self):
        return self.cluster.sim

    @property
    def hdfs(self):
        return self.cluster.hdfs

    @property
    def monitor(self) -> "CentralMonitor":
        return self.cluster.monitor

    @property
    def telemetry(self) -> "TelemetryBus":
        return self.cluster.telemetry

    def inject_faults(self, *args, **kwargs):
        """Arm fault injection on the underlying cluster."""
        return self.cluster.inject_faults(*args, **kwargs)

    # -- Backend protocol -----------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
    ) -> SimJobHandle:
        am = self.cluster.submit(spec, config_provider=config_provider, gate=gate)
        return SimJobHandle(am)

    def wait(self, handle: SimJobHandle) -> JobResult:
        return self.cluster.sim.run_until_complete(handle.am.completion)

    def run_job(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
    ) -> JobResult:
        return self.wait(self.submit(spec, config_provider=config_provider, gate=gate))

    def attach_tuner(self, tuner, spec: JobSpec) -> SimJobHandle:
        # Delegate to the tuner's SimCluster-native wiring: it reads the
        # input size off HDFS, registers stats/completion listeners, and
        # hooks elastic capacity changes -- all in the historical order,
        # which the pinned tuned-run digests depend on.
        return SimJobHandle(tuner.submit(self.cluster, spec))

    def close(self) -> None:
        """Nothing to release: the simulator has no external resources."""
