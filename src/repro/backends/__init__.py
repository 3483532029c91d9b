"""Execution backends: interchangeable runtimes behind one protocol.

See :mod:`repro.backends.base` for the protocol,
:mod:`repro.backends.sim` for the simulator adapter, and
:mod:`repro.backends.local` for the real local-process runtime.
"""

from repro.backends.base import BACKEND_NAMES, Backend, JobHandle

__all__ = ["BACKEND_NAMES", "Backend", "JobHandle"]
