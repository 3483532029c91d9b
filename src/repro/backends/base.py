"""The execution-backend protocol: one tuner, interchangeable runtimes.

MRONLINE's loop -- submit a job with per-task configurations, stream
task/node statistics into the :class:`CentralMonitor`, gate launches at
wave boundaries -- does not care *what* executes the tasks.  This module
names that seam:

* :class:`JobHandle` -- a submitted job: its spec, a mutable list of
  task-statistics listeners, and completion callbacks delivering the
  final :class:`~repro.yarn.app_master.JobResult`;
* :class:`Backend` -- a deployment that can :meth:`~Backend.submit`
  jobs, :meth:`~Backend.wait` for them, and wire an
  :class:`~repro.core.tuner.OnlineTuner` end to end via
  :meth:`~Backend.attach_tuner`.

Two implementations ship today: :class:`~repro.backends.sim.SimBackend`
(the discrete-event simulator, byte-identical to the pre-protocol
wiring) and :class:`~repro.backends.local.LocalProcessBackend` (real
mapper/reducer worker processes over local files).  Future runtimes
(a distributed cluster, trace replay) implement the same protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

try:  # Python 3.8+ always has Protocol; keep the guard for safety.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    from typing_extensions import Protocol, runtime_checkable  # type: ignore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapreduce.jobspec import JobSpec
    from repro.monitor.central_monitor import CentralMonitor
    from repro.monitor.statistics import TaskStats
    from repro.telemetry.bus import TelemetryBus
    from repro.yarn.app_master import ConfigProvider, JobResult, LaunchGate


#: The runtimes ``repro serve --backend`` accepts.
BACKEND_NAMES: Tuple[str, ...] = ("sim", "local")


@runtime_checkable
class JobHandle(Protocol):
    """One submitted job, independent of what runs it.

    ``stats_listeners`` is a mutable list: append a callable to receive
    every completed attempt's :class:`TaskStats` (the tuner's feed).
    Completion callbacks receive the final :class:`JobResult`.
    """

    spec: "JobSpec"
    stats_listeners: List[Callable[["TaskStats"], None]]

    def add_completion_callback(
        self, callback: Callable[["JobResult"], None]
    ) -> None: ...


@runtime_checkable
class Backend(Protocol):
    """A deployment that executes MapReduce jobs for the tuner.

    Implementations own a :class:`TelemetryBus` and a
    :class:`CentralMonitor` subscribed to its ``stats``/``node``
    categories, so every backend feeds the same monitoring pipeline.
    """

    #: Registry name (``"sim"``, ``"local"``, ...).
    name: str

    @property
    def monitor(self) -> "CentralMonitor": ...

    @property
    def telemetry(self) -> "TelemetryBus": ...

    def submit(
        self,
        spec: "JobSpec",
        config_provider: Optional["ConfigProvider"] = None,
        gate: Optional["LaunchGate"] = None,
    ) -> JobHandle:
        """Submit one job; it starts executing under this backend."""
        ...

    def wait(self, handle: JobHandle) -> "JobResult":
        """Drive execution until *handle*'s job completes."""
        ...

    def run_job(
        self,
        spec: "JobSpec",
        config_provider: Optional["ConfigProvider"] = None,
        gate: Optional["LaunchGate"] = None,
    ) -> "JobResult":
        """Submit one job and wait for it (``wait(submit(...))``)."""
        ...

    def attach_tuner(self, tuner, spec: "JobSpec") -> JobHandle:
        """Submit *spec* with *tuner* fully wired (provider, gate, stats)."""
        ...

    def close(self) -> None:
        """Release backend resources (worker pools, scratch space)."""
        ...

