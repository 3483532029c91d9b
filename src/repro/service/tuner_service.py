"""The tuner as a service: per-tenant state, cross-job warm starts.

One :class:`~repro.core.tuner.OnlineTuner` session per dispatched job
(aggressive strategy, service-sized search budget), all sessions of a
tenant sharing that tenant's
:class:`~repro.core.knowledge_base.TuningKnowledgeBase`.  Because the
knowledge base is keyed by (workload, input-size bucket), the shared
store *is* the (tenant, profile) keying the service needs: a finished
terasort session seeds the next terasort of the same tenant, and never
leaks across tenants.

Warm starting rides the tuner's existing mechanism -- the knowledge-base
hit becomes the search's seed point, which the optimizers evaluate in
their very first wave -- so "reaches its best cost in fewer waves" is a
measured property (:attr:`JobTuningRecord.wave_of_best`), not a policy
claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.hill_climbing import HillClimbSettings
from repro.core.knowledge_base import TuningKnowledgeBase
from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
from repro.sim.rng import derive_seed

#: The service-scale search budget: small waves so a continuous stream
#: of short jobs still completes several waves per job, cheap global
#: restarts so warm starts dominate the trajectory.
SERVICE_HILL_CLIMB = HillClimbSettings(m=6, n=4, global_search_limit=2)


@dataclass(frozen=True)
class JobTuningRecord:
    """One finished tuning session, in stable (tenant, index) identity.

    Deliberately free of process-global identifiers (job ids, sample
    ids): two identical service runs must produce byte-identical record
    lists, whatever ran earlier in the process.
    """

    tenant: str
    profile: str
    index: int
    warm_started: bool
    #: ``repr`` of the knowledge-base seed configuration ("" when cold).
    seed_config: str
    #: Summed best Equation-1 cost over the map and reduce searches.
    best_cost: float
    #: Latest wave (max over task types) in which the running best cost
    #: last improved -- the warm-vs-cold comparison metric.
    wave_of_best: int
    #: Total waves opened (max over task types).
    waves: int

    def line(self) -> str:
        start = "warm" if self.warm_started else "cold"
        return (
            f"{self.tenant}/{self.profile}#{self.index}: {start} "
            f"best_cost={self.best_cost:.6f} "
            f"wave_of_best={self.wave_of_best}/{self.waves}"
        )


class TunerService:
    """Mint per-job tuners; accumulate per-tenant tuning knowledge."""

    def __init__(self, seed: int, warm_start: bool = True) -> None:
        self.seed = seed
        self.warm_start = warm_start
        self._knowledge: Dict[str, TuningKnowledgeBase] = {}
        self.records: List[JobTuningRecord] = []

    def knowledge_base(self, tenant: str) -> TuningKnowledgeBase:
        kb = self._knowledge.get(tenant)
        if kb is None:
            kb = self._knowledge[tenant] = TuningKnowledgeBase()
        return kb

    def restore_knowledge(self, tenant: str, payload: str) -> None:
        """Reinstate a journaled knowledge-base snapshot (JSON).

        Used by the local-backend resume path: skipped (already
        journaled) sessions never re-run, so their knowledge must come
        off disk for later warm starts to see it.
        """
        self._knowledge[tenant] = TuningKnowledgeBase.from_json(payload)

    def tuner_for(self, tenant: str, profile: str, index: int) -> OnlineTuner:
        """A fresh aggressive tuning session for one dispatched job.

        The RNG stream is derived from (service seed, tenant, profile,
        arrival index) alone -- independent of dispatch order -- so the
        *search trajectory* of tenant A's third terasort is identical
        whether or not tenant B's jobs interleave with it.
        """
        rng = np.random.default_rng(
            derive_seed(self.seed, "service-tuner", tenant, profile, index)
        )
        return OnlineTuner(
            TuningStrategy.AGGRESSIVE,
            settings=TunerSettings(
                hill_climb=SERVICE_HILL_CLIMB, use_knowledge_base=self.warm_start
            ),
            rng=rng,
            knowledge_base=self.knowledge_base(tenant),
        )

    def record_session(
        self, tenant: str, profile: str, index: int, tuner: OnlineTuner, job_id: str
    ) -> JobTuningRecord:
        """Summarize a completed session into a stable record."""
        seed_config = tuner.warm_start_seeds.get(job_id)
        summary = tuner.session_summary(job_id)
        best = 0.0
        wave_of_best = 0
        waves = 0
        for search in summary.get("searches", {}).values():
            cost = search.get("best_cost")
            if cost is not None:
                best += float(cost)
            wb = search.get("wave_of_best")
            if wb is not None:
                wave_of_best = max(wave_of_best, int(wb))
            waves = max(waves, int(search.get("waves", 0)))
        record = JobTuningRecord(
            tenant=tenant,
            profile=profile,
            index=index,
            warm_started=seed_config is not None,
            seed_config=repr(seed_config) if seed_config is not None else "",
            best_cost=best,
            wave_of_best=wave_of_best,
            waves=waves,
        )
        self.records.append(record)
        return record
