"""Kill-and-resume recovery through the service write-ahead journal.

The acceptance bar: a ``repro serve`` run killed mid-stream and rerun
against its journal must reproduce the uninterrupted run's
:class:`ServiceReport` digest *byte for byte*.  On the simulator that
works by validated replay -- the resume re-executes the deterministic
trace and cross-checks every completion against the journaled prefix --
so these tests also pin the failure modes: foreign journals rejected by
fingerprint, tampered records surfacing as :class:`JournalDivergence`,
torn final lines repaired instead of poisoning the file.  The local
backend cannot replay wall-clock work, so its resume skips ahead past
the journaled jobs instead.
"""

import json
import os

import pytest

from repro.recovery import (
    JournalDivergence,
    JournalError,
    ServiceJournal,
    ServiceKilled,
    read_journal,
)
from repro.service import (
    ServiceConfig,
    TenantSpec,
    default_tenants,
    run_service,
    run_service_local,
)
from repro.testing import assert_no_output_leaks


def make_config(**overrides) -> ServiceConfig:
    base = dict(
        tenants=default_tenants(2, rate=1.0 / 300.0),
        jobs_per_tenant=4,
        seed=3,
        capacity=2,
    )
    base.update(overrides)
    return ServiceConfig(**base)


@pytest.fixture(scope="module")
def reference_report():
    """The uninterrupted run every resumed run must match."""
    return run_service(make_config())


class TestKillAndResume:
    def test_kill_raises_after_n_journaled_jobs(self, tmp_path):
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled) as exc:
            run_service(make_config(journal_path=journal, kill_after_jobs=3))
        assert exc.value.jobs_completed == 3
        state = read_journal(journal)
        assert len(state.jobs) == 3
        assert len(state.tuning) == 3

    def test_resume_reproduces_digest_byte_for_byte(
        self, tmp_path, reference_report
    ):
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=3))
        resumed = run_service(make_config(journal_path=journal))
        assert resumed.digest() == reference_report.digest()
        assert resumed.render() == reference_report.render()
        # The resumed run appended the remaining jobs to the journal.
        assert len(read_journal(journal).jobs) == resumed.jobs_completed
        assert_no_output_leaks(str(tmp_path))

    def test_journaled_run_digest_matches_unjournaled(
        self, tmp_path, reference_report
    ):
        # Journaling alone (no kill) must not perturb the report.
        journal = str(tmp_path / "svc.journal")
        report = run_service(make_config(journal_path=journal))
        assert report.digest() == reference_report.digest()

    def test_double_kill_then_resume(self, tmp_path, reference_report):
        # Crash, resume, crash again further in, resume to completion.
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=2))
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=2))
        assert len(read_journal(journal).jobs) == 4
        resumed = run_service(make_config(journal_path=journal))
        assert resumed.digest() == reference_report.digest()

    def test_torn_final_line_is_repaired(self, tmp_path, reference_report):
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=3))
        with open(journal, "rb") as fh:
            data = fh.read()
        # The crash ate the tail of the last record mid-write.
        with open(journal, "wb") as fh:
            fh.write(data[:-20])
        resumed = run_service(make_config(journal_path=journal))
        assert resumed.digest() == reference_report.digest()
        # The repair rewrote a clean file: every line parses now.
        with open(journal) as fh:
            for line in fh.read().splitlines():
                json.loads(line)
        assert_no_output_leaks(str(tmp_path))


class TestLocalKillAndResume:
    @staticmethod
    def run(journal, **overrides):
        config = ServiceConfig(
            tenants=(
                TenantSpec(
                    name="solo",
                    rate=1.0 / 2.0,
                    profiles=("wordcount",),
                    slo_seconds=600.0,
                ),
            ),
            jobs_per_tenant=2,
            seed=1,
            capacity=1,
            journal_path=journal,
            **overrides,
        )
        return run_service_local(config, num_splits=2, split_kb=4, num_reducers=1)

    def test_resume_skips_the_journaled_job(self, tmp_path, monkeypatch):
        from repro.backends.local import LocalProcessBackend

        journal = str(tmp_path / "local.journal")
        with pytest.raises(ServiceKilled) as exc:
            self.run(journal, kill_after_jobs=1)
        assert exc.value.jobs_completed == 1
        kinds = [r["kind"] for r in read_journal(journal).records]
        assert kinds == ["header", "job", "tuning", "kb"]

        executed = []
        attach = LocalProcessBackend.attach_tuner

        def counting_attach(backend, tuner, spec):
            executed.append(spec.name)
            return attach(backend, tuner, spec)

        monkeypatch.setattr(LocalProcessBackend, "attach_tuner", counting_attach)
        report = self.run(journal)
        assert report.jobs_completed == 2
        assert executed == ["wordcount-solo-1"]
        # The restored knowledge base warm-starts the second session.
        assert [r.warm_started for r in report.tuning] == [False, True]
        resumed_kinds = [r["kind"] for r in read_journal(journal).records]
        assert resumed_kinds == kinds + ["job", "tuning", "kb"]


class TestJournalSafety:
    def test_foreign_journal_rejected_by_fingerprint(self, tmp_path):
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=2))
        with pytest.raises(JournalError, match="different service config"):
            run_service(
                make_config(seed=4, journal_path=journal)
            )

    def test_tampered_record_surfaces_as_divergence(self, tmp_path):
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=2))
        with open(journal) as fh:
            lines = fh.read().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["kind"] == "job":
                record["completion"] += 1.0
                lines[i] = json.dumps(record, separators=(",", ":"))
                break
        with open(journal, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(JournalDivergence):
            run_service(make_config(journal_path=journal))

    def test_interior_corruption_raises(self, tmp_path):
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=2))
        with open(journal) as fh:
            lines = fh.read().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn *interior* line
        with open(journal, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_journal(journal)

    def test_not_a_journal_rejected(self, tmp_path):
        path = str(tmp_path / "noise.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind":"job"}\n')
        with pytest.raises(JournalError, match="missing header"):
            read_journal(path)

    def test_older_journal_rejected_by_version(self, tmp_path):
        # Version 1 journals also carried a ``tuner`` record per session.
        path = str(tmp_path / "v1.journal")
        with open(path, "w") as fh:
            fh.write('{"kind":"header","version":1,"fingerprint":"f"}\n')
            fh.write('{"kind":"tuner","tenant":"t","profile":"p","index":0}\n')
        with pytest.raises(JournalError, match="unsupported journal version 1"):
            read_journal(path)

    def test_kill_without_journal_rejected(self):
        with pytest.raises(ValueError, match="requires journal_path"):
            make_config(kill_after_jobs=1)

    def test_fingerprint_ignores_journal_knobs(self):
        plain = make_config()
        armed = make_config(journal_path="/tmp/x", kill_after_jobs=2)
        assert plain.fingerprint() == armed.fingerprint()
        assert plain.fingerprint() != make_config(seed=4).fingerprint()


class TestJournalState:
    def test_completed_keys(self, tmp_path):
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=3))
        state = read_journal(journal)
        keys = state.completed_keys()
        assert len(keys) == 3
        for tenant, index in keys:
            assert tenant.startswith("tenant-")
            assert index >= 0

    def test_knowledge_snapshots_restore(self, tmp_path):
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=3))
        state = read_journal(journal)
        # Knowledge snapshots restore into a usable KB.
        assert state.knowledge
        from repro.core.knowledge_base import TuningKnowledgeBase

        for entries in state.knowledge.values():
            kb = TuningKnowledgeBase.from_json(json.dumps(entries))
            assert len(kb) >= 1

    def test_open_is_exclusive_and_reopenable(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal = ServiceJournal(path)
        journal.open("f" * 64)
        with pytest.raises(JournalError, match="already open"):
            journal.open("f" * 64)
        journal.close()
        with ServiceJournal(path) as reopened:
            state = reopened.open("f" * 64)
        assert state.fingerprint == "f" * 64
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")
