"""Integration harness: build a cluster, submit jobs, run a tuned job.

:class:`SimCluster` assembles one simulated deployment (engine, nodes,
network, HDFS, resource manager, node managers, central monitor) and
offers a JobClient-like interface.  :func:`run_tuned` is the one seeded
tuned-run step every experiment driver shares.  Repeating a
measurement over seeds ("we repeat each experiment four times ... and
report the average") is :func:`repro.experiments.parallel.map_seeds`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.cluster.topology import Cluster, ClusterSpec, build_cluster
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.faults import FaultInjector, FaultPlan, generate_fault_plan
from repro.hdfs.filesystem import HdfsFileSystem
from repro.mapreduce.jobspec import JobSpec
from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.slave_monitor import SlaveMonitor
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry, derive_seed
from repro.telemetry import TelemetryBus
from repro.yarn.app_master import (
    ConfigProvider,
    FaultToleranceSettings,
    JobResult,
    LaunchGate,
    MRAppMaster,
)
from repro.yarn.fair_scheduler import FairScheduler
from repro.yarn.node_manager import NodeManager
from repro.yarn.resource_manager import ResourceManager
from repro.yarn.scheduler import FifoScheduler, SchedulerBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import Backend


class SimCluster:
    """One simulated YARN deployment."""

    def __init__(
        self,
        seed: int = 0,
        cluster_spec: Optional[ClusterSpec] = None,
        scheduler: str = "fifo",
        start_monitors: bool = True,
        fault_tolerance: Optional["FaultToleranceSettings"] = None,
    ) -> None:
        self.seed = seed
        self.rngs = RngRegistry(seed)
        self.sim = Simulator()
        #: The cluster-wide telemetry bus.  Always attached; with no
        #: exporter subscribed, every emission site outside the monitor
        #: feeds reduces to a cheap category check, so run digests stay
        #: bit-identical whether or not anyone is tracing.
        self.telemetry = TelemetryBus(clock=lambda: self.sim.now)
        self.sim.attach_telemetry(self.telemetry)
        self.cluster: Cluster = build_cluster(self.sim, cluster_spec)
        self.hdfs = HdfsFileSystem(
            self.cluster, rng=self.rngs.stream("hdfs", "placement")
        )
        self.scheduler: SchedulerBase = self._make_scheduler(scheduler)
        self.rm = ResourceManager(self.sim, self.cluster, self.scheduler)
        self.node_managers: Dict[int, NodeManager] = {
            node.node_id: NodeManager(self.sim, node, network=self.cluster.network)
            for node in self.cluster.nodes
        }
        # The central monitor consumes the ``stats``/``node`` feeds off
        # the bus; the slave monitor publishes its samples there.
        self.monitor = CentralMonitor(bus=self.telemetry)
        #: Samples every node on one timer per start; ``None`` when the
        #: harness runs without monitors.
        self.slave_monitor: Optional[SlaveMonitor] = None
        if start_monitors:
            self.slave_monitor = SlaveMonitor(self.sim, self.cluster.network)
            self.slave_monitor.start(self.node_managers.values())
        #: Retry/blacklist/speculation policy handed to every app master
        #: (``None`` = defaults: retries on, speculation off).
        self.fault_tolerance = fault_tolerance
        #: Armed by :meth:`inject_faults`; ``None`` in fault-free runs.
        self.fault_injector: Optional[FaultInjector] = None
        self._submissions = 0

    def inject_faults(
        self,
        plan: Optional[FaultPlan] = None,
        horizon: float = 0.0,
        **counts: int,
    ) -> FaultPlan:
        """Arm fault injection, from an explicit *plan* or generated knobs.

        Without *plan*, a scenario is drawn with
        :func:`~repro.faults.generate_fault_plan`, which takes the
        *counts* (``crashes=1``, ``link_flaky=2``, ... -- see
        :data:`~repro.faults.KIND_TO_KNOB`), from the dedicated
        ``("faults", "plan")`` RNG stream -- fault-free runs never touch
        that stream, so arming faults cannot perturb any other random
        draw, and the same seed always produces the same scenario.
        Per-fetch failure draws (``link_flaky``) come from the separate
        ``("faults", "fetch")`` stream so the scenario itself stays
        identical across plans that differ only in flaky windows.
        Must be called before the simulation is driven.
        """
        if self.fault_injector is not None:
            raise RuntimeError("faults already injected for this cluster")
        if plan is None:
            plan = generate_fault_plan(
                self.rngs.stream("faults", "plan"),
                num_nodes=len(self.cluster.nodes),
                horizon=horizon,
                **counts,
            )
        self.fault_injector = FaultInjector(
            self.sim,
            self.cluster,
            self.node_managers,
            self.rm,
            plan,
            fetch_rng=self.rngs.stream("faults", "fetch"),
            monitor=self.monitor,
            slave_monitor=self.slave_monitor,
        )
        self.fault_injector.start()
        return plan

    def _make_scheduler(self, kind: str) -> SchedulerBase:
        if kind == "fifo":
            return FifoScheduler(self.cluster)
        if kind == "fair":
            return FairScheduler(self.cluster)
        raise ValueError(f"unknown scheduler {kind!r} (want 'fifo' or 'fair')")

    # ------------------------------------------------------------------
    # JobClient-style interface
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
        weight: float = 1.0,
    ) -> MRAppMaster:
        """Submit one job; returns its app master (already started)."""
        # Dataflow noise is keyed by (name, submission order), NOT the
        # process-global job id, so identically built clusters replay
        # identically regardless of how many jobs ran before them.
        self._submissions += 1
        am = MRAppMaster(
            self.sim,
            self.cluster,
            self.hdfs,
            self.rm,
            self.node_managers,
            spec,
            config_provider=config_provider,
            gate=gate,
            rng=self.rngs.stream("dataflow", spec.name, self._submissions),
            app_weight=weight,
            fault_tolerance=self.fault_tolerance,
        )
        # Task stats reach the central monitor through the telemetry bus
        # (the AM emits a ``stats`` event per completed attempt), not a
        # hand-wired listener; see CentralMonitor.subscribe_to.
        if self.fault_injector is not None and self.fault_injector.elastic is not None:
            # Under elastic churn the AM receives preemption notices so
            # it can migrate doomed attempts within the grace window.
            self.fault_injector.elastic.register_app(am)
        am.start()
        return am

    def run_job(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
    ) -> JobResult:
        """Submit one job and run the simulation until it completes."""
        am = self.submit(spec, config_provider=config_provider, gate=gate)
        return self.sim.run_until_complete(am.completion)


class JobFailedError(RuntimeError):
    """A measured job did not complete successfully."""


def checked_duration(result: JobResult) -> float:
    """Duration of a *successful* job.

    Every figure protocol extracts durations through here: a job that
    exhausted its retries raises -- naming the failed tasks' reasons --
    instead of leaking a partial-run duration into an average.
    """
    if not result.succeeded:
        raise JobFailedError(f"job did not succeed: {result.failure_summary()}")
    return result.duration


def run_tuned(
    backend: "Backend",
    spec: JobSpec,
    strategy: TuningStrategy,
    seed: int,
    settings: Optional[TunerSettings] = None,
) -> Tuple[JobResult, OnlineTuner]:
    """Run *spec* on *backend* co-executed with a freshly seeded tuner.

    The tuner's RNG comes from ``derive_seed(seed, "tuner", spec.name)``,
    so every driver that tunes the same case under the same seed walks
    the same search.  Returns the job result and the tuner.
    """
    tuner = OnlineTuner(
        strategy,
        settings=settings,
        rng=np.random.default_rng(derive_seed(seed, "tuner", spec.name)),
    )
    return backend.wait(backend.attach_tuner(tuner, spec)), tuner
