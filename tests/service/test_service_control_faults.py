"""Control-plane faults injected into the *service* path.

The fault plan rides in ``ServiceConfig.fault_plan`` (as JSON, so the
frozen config stays hashable) and is armed on the service's own
simulated cluster before the arrival stream starts.  A tuner crash
mid-stream must leave every job completed, emit the
``tuner_crash``/``tuner_recovered`` telemetry pair, and stay seeded:
two identical faulted runs produce byte-identical reports.
"""

import pytest

from repro.backends.sim import SimBackend
from repro.faults import Fault, FaultPlan, plan_to_json
from repro.service import ServiceConfig, default_tenants, run_service

PLAN = FaultPlan(
    faults=(
        Fault(time=400.0, kind="tuner_crash", node_id=0, duration=120.0),
        Fault(time=900.0, kind="monitor_outage", node_id=0, duration=60.0),
    )
)


def make_config(**overrides) -> ServiceConfig:
    base = dict(
        tenants=default_tenants(2, rate=1.0 / 300.0),
        jobs_per_tenant=4,
        seed=3,
        capacity=2,
        fault_plan=plan_to_json(PLAN),
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestServiceControlFaults:
    def test_stream_completes_under_tuner_crash(self):
        report = run_service(make_config())
        assert report.jobs_completed == 8
        assert len(report.tuning) == 8

    def test_faulted_run_is_deterministic(self):
        assert run_service(make_config()).digest() == run_service(
            make_config()
        ).digest()

    def test_crash_and_recovery_telemetry(self):
        backend = SimBackend(seed=3, scheduler="fair")
        events = []
        backend.cluster.telemetry.subscribe(
            lambda ev: events.append(ev), ("tuner", "fault")
        )
        run_service(make_config(), backend=backend)
        crashes = [e for e in events if e.kind == "tuner_crash"]
        recoveries = [e for e in events if e.kind == "tuner_recovered"]
        outages = [e for e in events if e.kind == "monitor_outage"]
        assert len(crashes) == 1 and crashes[0].time == 400.0
        assert crashes[0].down_until == 520.0
        assert len(recoveries) == 1 and recoveries[0].time == 520.0
        assert recoveries[0].downtime == 120.0
        assert len(outages) == 1

    def test_kill_and_resume_under_faults(self, tmp_path):
        from repro.recovery import ServiceKilled

        reference = run_service(make_config())
        journal = str(tmp_path / "svc.journal")
        with pytest.raises(ServiceKilled):
            run_service(make_config(journal_path=journal, kill_after_jobs=2))
        resumed = run_service(make_config(journal_path=journal))
        assert resumed.digest() == reference.digest()

    @pytest.mark.parametrize("text", ["", "not json", '{"faults": [{"kind": "nope"}]}'])
    def test_invalid_fault_plan_rejected_at_construction(self, text):
        with pytest.raises(ValueError, match="invalid fault_plan"):
            make_config(fault_plan=text)

    def test_fault_plan_changes_fingerprint(self):
        assert (
            make_config().fingerprint()
            != make_config(fault_plan=None).fingerprint()
        )
