"""Crash recovery: the service's write-ahead journal.

The control plane of a long-running tuning service must survive its own
process dying.  This package provides the compact journal the service
appends to as jobs complete -- every record fsynced before its effects
are observable anywhere else -- and the reader that folds a journal
(possibly ending in a torn line from the crash) back into the state a
resumed run needs: completed jobs in stable (tenant, arrival-index)
identity, finished tuning sessions, per-tenant knowledge-base
snapshots, and preemption decisions.

Resume semantics differ by backend, deliberately:

* the **simulator** re-runs the whole trace deterministically and
  cross-validates every replayed completion against the journaled
  prefix (:class:`JournalDivergence` on any mismatch), so a killed and
  recovered run reproduces the uninterrupted
  :class:`~repro.service.report.ServiceReport` digest byte-for-byte;
* the **local backend** genuinely skips journaled jobs (wall-clock work
  is not replayable) and restores the knowledge bases so later warm
  starts still see the pre-crash sessions.

See ``docs/recovery.md`` for the record schema and the crash model.
"""

from repro.recovery.journal import (
    JOURNAL_VERSION,
    JournalDivergence,
    JournalError,
    JournalState,
    ServiceJournal,
    ServiceKilled,
    read_journal,
)

__all__ = [
    "JOURNAL_VERSION",
    "JournalDivergence",
    "JournalError",
    "JournalState",
    "ServiceJournal",
    "ServiceKilled",
    "read_journal",
]
