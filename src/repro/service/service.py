"""The long-running service loop: arrivals in, steady-state report out.

One simulated cluster under the fair scheduler serves the whole trace.
Arrivals are scheduled as absolute-time callbacks on the simulation
calendar; the fair-share dispatcher bounds concurrent jobs to the
service ``capacity`` and picks who goes next; every dispatched job gets
a tenant-weighted app-master registration (so the YARN fair scheduler
applies the same weights *within* the cluster) and, when tuning is on,
its own warm-startable tuning session from the :class:`TunerService`.

Preemption: a job stuck at the head of its tenant's queue for
``preempt_after`` seconds while the slot pool is full down-weights the
most over-share running tenant's oldest job (scheduler-level weight
drop -- "preemption without kill") and force-starts over capacity.

The local-backend variant replays the same kind of trace against real
worker processes at smoke scale: jobs run one at a time in dispatch
order (the backend owns the machine's process slots), latencies are
wall-clock, and no digest is pinned -- it proves the service loop works
off-simulator, not that wall time is reproducible.

Both loops finish every job through one :class:`_Ledger`, which
records the completion and its tuning session and, with a journal,
writes them ahead before the loop reacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.service.arrivals import JobArrival, TenantSpec, generate_arrivals
from repro.service.queues import FairShareDispatcher
from repro.service.report import CompletedJob, ServiceReport, build_report
from repro.service.tuner_service import TunerService
from repro.workloads.suite import make_job_spec, service_case

#: Tenant templates for :func:`default_tenants`, cycled in order:
#: (weight, pattern, job mix, SLO seconds).
_TENANT_TEMPLATES: Tuple[Tuple[float, str, Tuple[str, ...], float], ...] = (
    (3.0, "poisson", ("terasort", "bigram-freebase"), 5000.0),
    (2.0, "diurnal", ("wordcount-wikipedia", "inverted-index-wikipedia"), 5000.0),
    (1.0, "poisson", ("text-search-freebase", "bbp"), 5000.0),
    (1.0, "diurnal", ("wordcount-wikipedia", "bbp"), 5000.0),
)


def default_tenants(count: int = 3, rate: float = 1.0 / 400.0) -> Tuple[TenantSpec, ...]:
    """*count* tenants with distinct weights, mixes, and arrival shapes."""
    if count < 1:
        raise ValueError("count must be >= 1")
    tenants = []
    for i in range(count):
        weight, pattern, profiles, slo = _TENANT_TEMPLATES[i % len(_TENANT_TEMPLATES)]
        tenants.append(
            TenantSpec(
                name=f"tenant-{chr(ord('a') + i)}",
                weight=weight,
                rate=rate,
                pattern=pattern,
                profiles=profiles,
                slo_seconds=slo,
                peak_time=1800.0 * i,
                amplitude=0.8,
                period=14400.0,
            )
        )
    return tuple(tenants)


@dataclass(frozen=True)
class ServiceConfig:
    """One service run, fully determined by its fields."""

    tenants: Tuple[TenantSpec, ...]
    jobs_per_tenant: int = 10
    seed: int = 1
    #: Concurrent job slots the dispatcher hands out.
    capacity: int = 3
    #: Tune every job (False = every job runs its default config).
    tuned: bool = True
    #: Seed searches from the tenant knowledge base (the warm/cold arm
    #: switch; meaningless when ``tuned`` is False).
    warm_start: bool = True
    #: Head-of-queue wait that triggers preemption (None disables it).
    preempt_after: Optional[float] = 2000.0
    #: Victim down-weight multiplier on preemption.
    preempt_weight_factor: float = 0.1
    #: Write-ahead journal path (arms crash recovery; None disables).
    #: Rerunning against an existing journal resumes the killed run.
    journal_path: Optional[str] = None
    #: Simulate a hard crash: raise :class:`ServiceKilled` after this
    #: many *newly journaled* completions (0 disables; needs a journal).
    kill_after_jobs: int = 0
    #: JSON fault plan (``repro.faults.plan_to_json``) injected into the
    #: simulated cluster before the stream starts (sim backend only).
    #: Kept as the JSON string so the frozen config stays hashable.
    fault_plan: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if self.jobs_per_tenant < 0:
            raise ValueError("jobs_per_tenant must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.preempt_after is not None and self.preempt_after <= 0:
            raise ValueError("preempt_after must be positive (or None)")
        if not 0.0 < self.preempt_weight_factor <= 1.0:
            raise ValueError("preempt_weight_factor must be in (0, 1]")
        if self.kill_after_jobs < 0:
            raise ValueError("kill_after_jobs must be >= 0")
        if self.kill_after_jobs and not self.journal_path:
            raise ValueError("kill_after_jobs requires journal_path")
        if self.fault_plan is not None:
            from repro.faults import plan_from_json

            try:
                plan_from_json(self.fault_plan)
            except ValueError as err:
                raise ValueError(f"invalid fault_plan: {err}") from None

    def fingerprint(self) -> str:
        """sha256 identity of the run the journal binds itself to.

        The journal/kill knobs are excluded on purpose: the killed run
        and its resume differ exactly there, yet must share a journal.
        """
        import hashlib

        identity = (
            self.tenants,
            self.jobs_per_tenant,
            self.seed,
            self.capacity,
            self.tuned,
            self.warm_start,
            self.preempt_after,
            self.preempt_weight_factor,
            self.fault_plan,
        )
        return hashlib.sha256(repr(identity).encode()).hexdigest()


@dataclass
class _RunningJob:
    tenant: str
    arrival: JobArrival
    dispatch_time: float
    tuner: Optional[object]
    forced: bool


@dataclass
class _ServiceState:
    """Mutable bookkeeping of one in-flight service run."""

    running: Dict[str, _RunningJob] = field(default_factory=dict)
    queued: set = field(default_factory=set)
    preemptions: int = 0


class _Ledger:
    """The completion path both service loops share.

    It mints the tuning sessions, holds the completed jobs and, with a
    journal, writes each fresh completion ahead -- job record, tuning
    summary, optimizer checkpoints and the tenant's knowledge-base
    snapshot -- before the loop reacts to it.  A completion inside the
    journaled prefix must replay it exactly (same identity, same
    timestamps).  The ``kill_after_jobs`` crash fires only on *newly*
    journaled jobs, so a resumed run replays the prefix and then dies N
    jobs further in (or finishes).
    """

    def __init__(self, config: ServiceConfig) -> None:
        from repro.recovery import JournalState, ServiceJournal

        self.config = config
        self.tuner_service = TunerService(config.seed, warm_start=config.warm_start)
        self.completed: List[CompletedJob] = []
        self.journal: Optional[ServiceJournal] = None
        #: The journaled prefix (empty without a journal or on a fresh one).
        self.prior = JournalState(fingerprint="")
        if config.journal_path:
            self.journal = ServiceJournal(config.journal_path)
            self.prior = self.journal.open(config.fingerprint())
        #: Journaled jobs that no completion has replayed yet.
        self.unreplayed: Dict[Tuple[str, int], CompletedJob] = {
            (j.tenant, j.index): j for j in self.prior.jobs
        }
        self._slo = {t.name: t.slo_seconds for t in config.tenants}
        self._fresh = 0

    def complete(
        self,
        arrival: JobArrival,
        dispatch: float,
        completion: float,
        tuner,
        job_id: str,
        preempted_into: bool = False,
    ) -> CompletedJob:
        """Record one finished job; return its completion record."""
        from repro.recovery import JournalDivergence, ServiceKilled

        record = CompletedJob(
            tenant=arrival.tenant,
            profile=arrival.profile,
            index=arrival.index,
            arrival=arrival.time,
            dispatch=dispatch,
            completion=completion,
            slo_seconds=self._slo[arrival.tenant],
            warm_started=(
                tuner is not None and tuner.warm_start_seeds.get(job_id) is not None
            ),
            preempted_into=preempted_into,
        )
        self.completed.append(record)
        session = None
        if tuner is not None:
            session = self.tuner_service.record_session(
                arrival.tenant, arrival.profile, arrival.index, tuner, job_id
            )
        if self.journal is None:
            return record
        prior_record = self.unreplayed.pop((record.tenant, record.index), None)
        if prior_record is not None:
            if prior_record != record:
                raise JournalDivergence(
                    f"resumed run diverged from journal at "
                    f"{record.tenant}#{record.index}: journaled "
                    f"{prior_record}, replayed {record}"
                )
            return record
        self.journal.record_job(record)
        if session is not None:
            self.journal.record_tuning(session)
            self.journal.record_checkpoint(
                record.tenant,
                record.profile,
                record.index,
                tuner.session_checkpoint(job_id)["searches"],
            )
            self.journal.record_knowledge(
                record.tenant, self.tuner_service.knowledge_base(record.tenant)
            )
        self._fresh += 1
        if self.config.kill_after_jobs and self._fresh >= self.config.kill_after_jobs:
            raise ServiceKilled(len(self.completed))
        return record

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    def report(self, backend: str, preemptions: int) -> ServiceReport:
        return build_report(
            seed=self.config.seed,
            backend=backend,
            warm_start=self.config.warm_start,
            completed=self.completed,
            tenant_weights={t.name: t.weight for t in self.config.tenants},
            tuning=self.tuner_service.records,
            preemptions=preemptions,
        )


def run_service(config: ServiceConfig, backend=None) -> ServiceReport:
    """Serve the whole trace on the simulator; return the report.

    *backend* may be a pre-built :class:`~repro.backends.sim.SimBackend`
    (its cluster must use the fair scheduler); by default one is
    constructed from the config seed.
    """
    from repro.backends.sim import SimBackend
    from repro.recovery import JournalDivergence
    from repro.telemetry.events import (
        ServiceJobCompleted,
        ServiceJobDispatched,
        ServiceJobQueued,
        ServicePreemption,
        ServiceSteadyState,
    )

    if backend is None:
        backend = SimBackend(seed=config.seed, scheduler="fair")
    sc = backend.cluster
    sim = sc.sim
    bus = sc.telemetry
    if config.fault_plan:
        from repro.faults import plan_from_json

        sc.inject_faults(plan=plan_from_json(config.fault_plan))
    tenant_specs = {t.name: t for t in config.tenants}
    arrivals = generate_arrivals(config.tenants, config.jobs_per_tenant, config.seed)
    dispatcher: FairShareDispatcher[JobArrival] = FairShareDispatcher(config.capacity)
    for tenant in config.tenants:
        dispatcher.add_tenant(tenant.name, tenant.weight)
    state = _ServiceState()
    total = len(arrivals)
    done = sim.event()

    # Crash recovery: the simulator resumes by *re-running* the whole
    # trace (it is deterministic) and cross-validating every replayed
    # completion against the journaled prefix -- so a killed and
    # recovered run reproduces the uninterrupted report byte-for-byte,
    # and any code/config drift surfaces as JournalDivergence instead
    # of a silently different report.
    ledger = _Ledger(config)
    prior_preemptions = list(ledger.prior.preemptions)

    def emit(event) -> None:
        if bus.wants("service"):
            bus.emit(event)

    def launch(tenant: str, arrival: JobArrival, forced: bool = False) -> None:
        state.queued.discard((tenant, arrival.index))
        spec = make_job_spec(service_case(arrival.profile), sc.hdfs)
        tuner = None
        warm = False
        if config.tuned:
            tuner = ledger.tuner_service.tuner_for(tenant, arrival.profile, arrival.index)
            am = tuner.submit(sc, spec, weight=tenant_specs[tenant].weight)
            warm = tuner.warm_start_seeds.get(spec.job_id) is not None
        else:
            am = sc.submit(spec, weight=tenant_specs[tenant].weight)
        state.running[spec.job_id] = _RunningJob(
            tenant=tenant,
            arrival=arrival,
            dispatch_time=sim.now,
            tuner=tuner,
            forced=forced,
        )
        emit(
            ServiceJobDispatched(
                time=sim.now,
                tenant=tenant,
                job_id=spec.job_id,
                job_name=spec.name,
                queue_delay=sim.now - arrival.time,
                warm_started=warm,
            )
        )
        bus.increment("service.dispatched")
        am.completion.add_callback(
            lambda ev, job_id=spec.job_id: on_complete(job_id, ev.value)
        )

    def drain() -> None:
        while True:
            pick = dispatcher.start_next()
            if pick is None:
                return
            launch(pick[0], pick[1])

    def on_complete(job_id: str, result) -> None:
        job = state.running.pop(job_id)
        record = ledger.complete(
            job.arrival, job.dispatch_time, sim.now, job.tuner, job_id, job.forced
        )
        dispatcher.finish(job.tenant)
        emit(
            ServiceJobCompleted(
                time=sim.now,
                tenant=job.tenant,
                job_id=job_id,
                job_name=job.arrival.profile,
                latency=record.latency,
                slo_met=record.slo_met,
            )
        )
        bus.increment("service.completed")
        if len(ledger.completed) == total:
            done.succeed()
        else:
            drain()

    def check_preemption(arrival: JobArrival) -> None:
        key = (arrival.tenant, arrival.index)
        if key not in state.queued:
            return  # already dispatched (or completed)
        if dispatcher.idle_capacity > 0:
            drain()
            return
        if dispatcher.head(arrival.tenant) is not arrival:
            return  # a sibling ahead of it will raise its own alarm
        victim_tenant = dispatcher.preemption_victim(exclude=(arrival.tenant,))
        if victim_tenant is None:
            return  # every slot is already ours; just wait
        # The victim's *oldest* job vacates share: it is furthest along
        # and will release its containers soonest anyway.
        victims = [
            (job.dispatch_time, job_id)
            for job_id, job in state.running.items()
            if job.tenant == victim_tenant
        ]
        if not victims:
            return
        _, victim_job_id = min(victims)
        new_weight = (
            tenant_specs[victim_tenant].weight * config.preempt_weight_factor
        )
        sc.rm.set_app_weight(victim_job_id, new_weight)
        state.preemptions += 1
        if ledger.journal is not None:
            decision = {
                "time": sim.now,
                "tenant": arrival.tenant,
                "victim_tenant": victim_tenant,
            }
            if prior_preemptions:
                prior_decision = prior_preemptions.pop(0)
                if prior_decision != decision:
                    raise JournalDivergence(
                        f"resumed run diverged from journal: journaled "
                        f"preemption {prior_decision}, replayed {decision}"
                    )
            else:
                ledger.journal.record_preemption(
                    sim.now, arrival.tenant, victim_tenant
                )
        emit(
            ServicePreemption(
                time=sim.now,
                tenant=arrival.tenant,
                victim_tenant=victim_tenant,
                victim_job_id=victim_job_id,
                waited=sim.now - arrival.time,
            )
        )
        bus.increment("service.preemptions")
        item = dispatcher.force_start(arrival.tenant)
        launch(arrival.tenant, item, forced=True)

    def on_arrival(arrival: JobArrival) -> None:
        state.queued.add((arrival.tenant, arrival.index))
        dispatcher.enqueue(arrival.tenant, arrival)
        emit(
            ServiceJobQueued(
                time=sim.now,
                tenant=arrival.tenant,
                job_name=arrival.profile,
                arrival=arrival.time,
            )
        )
        bus.increment("service.queued")
        drain()
        if config.preempt_after is not None:
            sim.call_at(
                sim.now + config.preempt_after,
                lambda a=arrival: check_preemption(a),
            )

    for arrival in arrivals:
        sim.call_at(arrival.time, lambda a=arrival: on_arrival(a))
    try:
        if total:
            sim.run_until_complete(done)
    finally:
        ledger.close()
    if ledger.unreplayed:
        leftover = sorted(ledger.unreplayed)
        raise JournalDivergence(
            f"{len(leftover)} journaled job(s) never replayed on resume: "
            f"{leftover[:5]}"
        )

    report = ledger.report("sim", state.preemptions)
    emit(
        ServiceSteadyState(
            time=sim.now,
            jobs_completed=report.jobs_completed,
            throughput_jobs_per_sec=report.throughput_jobs_per_sec,
            p50_latency=report.p50_latency,
            p95_latency=report.p95_latency,
            slo_attainment=report.slo_attainment,
            preemptions=report.preemptions,
        )
    )
    return report


def run_service_local(
    config: ServiceConfig,
    num_splits: int = 6,
    split_kb: int = 8,
    num_reducers: int = 2,
) -> ServiceReport:
    """Smoke-scale service loop on the real local-process backend.

    Tenants' profiles must name local workloads (``wordcount``,
    ``grep``, ``inverted-index``).  Jobs run sequentially in arrival
    order over one shared corpus; each still gets its own warm-startable
    tuning session, so the warm-vs-cold bookkeeping is exercised against
    real task executions.  Latencies are wall-clock and the report's
    digest is *not* pinned anywhere.

    With ``config.journal_path`` set, resume is a genuine skip-ahead:
    wall-clock work is not replayable, so journaled jobs are loaded
    from disk instead of re-executed and the tenant knowledge bases are
    restored so later warm starts still see the pre-crash sessions.
    """
    import json
    import os
    import time

    from repro.backends.local import (
        LocalProcessBackend,
        generate_corpus,
        local_job_spec,
    )

    if config.fault_plan:
        raise ValueError("fault_plan is simulator-only; the local backend "
                         "meets real crashes, not injected ones")
    arrivals = generate_arrivals(config.tenants, config.jobs_per_tenant, config.seed)
    ledger = _Ledger(config)
    tuner_service = ledger.tuner_service
    prior = ledger.prior
    ledger.completed.extend(prior.jobs)
    tuner_service.records.extend(prior.tuning)
    for tenant, entries in prior.knowledge.items():
        tuner_service.restore_knowledge(tenant, json.dumps(entries))
    journaled_keys = prior.completed_keys()
    clock = max((j.completion for j in prior.jobs), default=0.0)
    try:
        with LocalProcessBackend(seed=config.seed) as backend:
            corpus_dir = os.path.join(backend.workspace, "corpus")
            generate_corpus(
                corpus_dir, num_splits=num_splits, split_kb=split_kb, seed=config.seed
            )
            for arrival in arrivals:
                if (arrival.tenant, arrival.index) in journaled_keys:
                    continue  # recovered from the journal, not re-executed
                # An open stream replayed at full speed: a job "arrives"
                # at its trace time and starts when the machine frees up.
                clock = max(clock, arrival.time)
                spec = local_job_spec(
                    arrival.profile,
                    corpus_dir,
                    num_reducers,
                    name=f"{arrival.profile}-{arrival.tenant}-{arrival.index}",
                )
                start_wall = time.monotonic()
                tuner = None
                if config.tuned:
                    tuner = tuner_service.tuner_for(
                        arrival.tenant, arrival.profile, arrival.index
                    )
                    handle = backend.attach_tuner(tuner, spec)
                else:
                    handle = backend.submit(spec)
                backend.wait(handle)
                dispatch = clock
                clock += time.monotonic() - start_wall
                ledger.complete(arrival, dispatch, clock, tuner, spec.job_id)
    finally:
        ledger.close()
    return ledger.report("local", preemptions=0)
