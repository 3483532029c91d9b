"""The service write-ahead journal: append, fsync, recover.

Layout is JSON Lines, one self-describing record per line, ``kind``
first:

``header``
    Version plus a fingerprint of the :class:`ServiceConfig` identity
    (everything except the journal/kill knobs, which legitimately
    differ between the killed run and its resume).  A journal only ever
    resumes the exact run that wrote it.
``job``
    One completed job -- the fields of
    :class:`~repro.service.report.CompletedJob`, keyed by the stable
    (tenant, arrival-index) identity, never process-global job ids.
``tuning``
    The finished tuning session's summary
    (:class:`~repro.service.tuner_service.JobTuningRecord` fields).
``kb``
    The tenant's knowledge base after the session; the latest snapshot
    per tenant wins on replay.
``preemption``
    One scheduler-level preemption decision (time, beneficiary,
    victim tenant).

Every append is flushed and fsynced before the service proceeds --
write-ahead in the only sense that matters here: a record is durable
before its effects show up in the report.  Recovery reads the file
through :func:`repro.telemetry.replay_records`, which tolerates a torn
*final* line (the crash artifact) but treats interior corruption as an
error; :meth:`ServiceJournal.open` then rewrites the surviving prefix
atomically so the repaired file is clean before any new append lands.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, TextIO

from repro.service.report import CompletedJob
from repro.service.tuner_service import JobTuningRecord
from repro.telemetry.export import replay_records

JOURNAL_VERSION = 2


class JournalError(RuntimeError):
    """The journal cannot be read, written, or matched to this run."""


class JournalDivergence(JournalError):
    """A resumed run produced different results than the journal.

    The simulator resume path re-executes the trace and checks every
    replayed completion against the journaled prefix; any mismatch
    means the journal belongs to a different computation (config drift,
    code drift, or a corrupted record) and silently continuing would
    fabricate a report no single uninterrupted run could produce.
    """


class ServiceKilled(RuntimeError):
    """A simulated hard crash: the service stopped mid-stream on purpose.

    Raised by the service loop when ``ServiceConfig.kill_after_jobs``
    newly journaled completions have landed.  Everything those jobs
    contributed is already fsynced, so a rerun against the same journal
    resumes exactly where this exception cut the run short.
    """

    def __init__(self, jobs_completed: int) -> None:
        super().__init__(
            f"service killed after {jobs_completed} completed job(s); "
            "rerun with the same journal to resume"
        )
        self.jobs_completed = jobs_completed


@dataclass
class JournalState:
    """A journal folded back into resumable state."""

    fingerprint: str
    #: Every intact record, header included (the repair rewrite source).
    records: List[Dict[str, Any]] = field(default_factory=list)
    jobs: List[CompletedJob] = field(default_factory=list)
    tuning: List[JobTuningRecord] = field(default_factory=list)
    #: tenant -> knowledge-base entries (latest snapshot wins).
    knowledge: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    preemptions: List[Dict[str, Any]] = field(default_factory=list)

    def completed_keys(self) -> set:
        """The (tenant, arrival-index) pairs already on disk."""
        return {(job.tenant, job.index) for job in self.jobs}


def read_journal(path: str) -> JournalState:
    """Parse *path* into a :class:`JournalState` (torn tail tolerated)."""
    records = replay_records(path)
    if not records or records[0].get("kind") != "header":
        raise JournalError(f"{path} is not a service journal (missing header)")
    header = records[0]
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"{path} has unsupported journal version {header.get('version')!r}"
        )
    state = JournalState(fingerprint=str(header["fingerprint"]), records=records)
    for record in records[1:]:
        kind = record.get("kind")
        body = {k: v for k, v in record.items() if k != "kind"}
        if kind == "job":
            state.jobs.append(CompletedJob(**body))
        elif kind == "tuning":
            state.tuning.append(JobTuningRecord(**body))
        elif kind == "kb":
            state.knowledge[record["tenant"]] = record["entries"]
        elif kind == "preemption":
            state.preemptions.append(body)
        else:
            raise JournalError(f"{path}: unknown record kind {kind!r}")
    return state


class ServiceJournal:
    """Append-only writer (and opener/repairer) of one service journal."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: Optional[TextIO] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self, fingerprint: str) -> JournalState:
        """Open for append; return the recovered prefix (empty when new).

        An existing journal must carry the same config *fingerprint* --
        resuming someone else's run would splice two different traces
        into one file.  A torn final line is repaired by atomically
        rewriting the intact prefix before the append handle opens, so
        a partial record can never sit in the middle of the file.
        """
        if self._fh is not None:
            raise JournalError("journal is already open")
        if os.path.exists(self.path):
            state = read_journal(self.path)
            if state.fingerprint != fingerprint:
                raise JournalError(
                    f"journal {self.path} was written by a different service "
                    f"config (fingerprint {state.fingerprint[:12]}... != "
                    f"{fingerprint[:12]}...)"
                )
            tmp = self.path + ".tmp"
            try:
                with open(tmp, "w") as fh:
                    for record in state.records:
                        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._fh = open(self.path, "a")
            return state
        self._fh = open(self.path, "w")
        self._append(
            {"kind": "header", "version": JOURNAL_VERSION, "fingerprint": fingerprint}
        )
        return JournalState(fingerprint=fingerprint)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ServiceJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Appends (each one durable before return)
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise JournalError("journal is not open")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_job(self, job: CompletedJob) -> None:
        self._append({"kind": "job", **asdict(job)})

    def record_tuning(self, record: JobTuningRecord) -> None:
        self._append({"kind": "tuning", **asdict(record)})

    def record_knowledge(self, tenant: str, knowledge_base) -> None:
        """Snapshot *tenant*'s knowledge base (any object with to_json)."""
        self._append(
            {
                "kind": "kb",
                "tenant": tenant,
                "entries": json.loads(knowledge_base.to_json()),
            }
        )

    def record_preemption(
        self, time: float, tenant: str, victim_tenant: str
    ) -> None:
        self._append(
            {
                "kind": "preemption",
                "time": time,
                "tenant": tenant,
                "victim_tenant": victim_tenant,
            }
        )
