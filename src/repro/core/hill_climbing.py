"""Algorithm 1: the gray-box smart hill-climbing search.

The paper's pseudo-code is a closed loop ("sample, run, compare"), but
in MRONLINE every evaluation is a real task execution, so the climber
here is an **asynchronous state machine**: :meth:`propose` hands out
the next batch of configurations to try, the tuner runs them on tasks,
and :meth:`observe` feeds costs back.  When a batch is fully observed
the climber advances exactly as Algorithm 1 prescribes:

* **global phase** -- ``m`` LHS samples over the rule-tightened bounds;
  the best becomes the current point ``Ccur`` and seeds a neighborhood;
* **local phase** -- ``n`` weighted-LHS samples in the neighborhood;
  improvement recenters (``adjust_neighbor``), otherwise the
  neighborhood shrinks by ``f`` (``shrink_neighbor``); below ``Nt`` the
  local search ends;
* global rounds that fail to improve increment the give-up counter;
  after ``g`` such rounds the search terminates.

The *gray-box* part: :attr:`bounds` is shared with the Section-6 tuning
rules, which tighten it from monitored statistics between batches, so
later samples concentrate where the evidence points.

The climber is one backend behind the :class:`repro.core.optimizers.
base.Optimizer` protocol (wave lifecycle, rollback, infeasible regions,
and decision listeners live on the shared
:class:`~repro.core.optimizers.base.WaveOptimizer`); alternative
backends -- SPSA, random search, pure LHS -- plug into the same tuner
loop via :func:`repro.core.optimizers.make_optimizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.neighborhood import INITIAL_SIZE, Neighborhood
from repro.core.optimizers.base import (
    INFEASIBLE_RADIUS,
    Sample,
    SearchPhase,
    WaveOptimizer,
    next_sample_id,
    uniform_sample,
)
from repro.core.parameters import ParameterSpace
from repro.core.sampling import latin_hypercube, weighted_latin_hypercube

__all__ = [
    "GrayBoxHillClimber",
    "HillClimbSettings",
    "INFEASIBLE_RADIUS",
    "Sample",
    "SearchPhase",
]


@dataclass(frozen=True)
class HillClimbSettings:
    """Algorithm-1 constants (defaults are the paper's, Section 5)."""

    m: int = 24  # global-phase samples
    n: int = 16  # local-phase samples
    neighborhood_threshold: float = 0.1  # Nt
    shrink_factor: float = 0.75  # f
    global_search_limit: int = 5  # g
    lhs_intervals: int = 24  # k (granularity; equals the batch sizes here)
    initial_neighborhood: float = INITIAL_SIZE
    #: Task evaluations per sample before its cost is trusted.
    replicas: int = 1
    #: Sample with Latin hypercubes (True) or plain uniforms (False --
    #: the sampling-quality ablation's baseline).
    use_lhs: bool = True

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("batch sizes must be >= 1")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink factor must be in (0, 1)")
        if not 0.0 < self.neighborhood_threshold < 1.0:
            raise ValueError("Nt must be in (0, 1)")
        if self.global_search_limit < 1:
            raise ValueError("g must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


class GrayBoxHillClimber(WaveOptimizer):
    """Asynchronous Algorithm 1 over a (sub)space of parameters."""

    def __init__(
        self,
        space: ParameterSpace,
        rng: np.random.Generator,
        settings: Optional[HillClimbSettings] = None,
        seed_point: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(space, rng)
        self.settings = settings or HillClimbSettings()
        self.replicas = self.settings.replicas
        self.phase = SearchPhase.GLOBAL
        self.global_rounds_without_improvement = 0
        self._current: Optional[Sample] = None  # Ccur
        self._best_ever: Optional[Sample] = None
        self.neighborhood: Optional[Neighborhood] = None
        self._first_global = True
        #: Optional warm start (e.g. from the knowledge base): injected
        #: into the first global batch.
        self._seed_point = seed_point

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.phase is SearchPhase.DONE

    def _best_sample(self) -> Optional[Sample]:
        # The incumbent is the *validated* best (it survives within-wave
        # re-evaluation); raw best-ever may be a lucky noise draw.
        return self._current or self._best_ever

    # ------------------------------------------------------------------
    # Algorithm 1 state transitions
    # ------------------------------------------------------------------
    def _make_batch(self) -> List[Sample]:
        st = self.settings
        if self.phase is SearchPhase.GLOBAL:
            if st.use_lhs:
                points = latin_hypercube(
                    self.rng, st.m, len(self.space), bounds=self.bounds.as_pairs()
                )
            else:
                points = uniform_sample(self.rng, st.m, self.bounds.as_pairs())
            if self._seed_point is not None:
                points[0] = self.bounds.clip(self._seed_point)
                self._seed_point = None
            batch = [Sample(next_sample_id(), p, SearchPhase.GLOBAL) for p in points]
        else:
            assert self.neighborhood is not None
            box = self.neighborhood.sampling_bounds(self.bounds)
            if st.use_lhs:
                points = weighted_latin_hypercube(
                    self.rng, st.n, self.neighborhood.center, box
                )
            else:
                points = uniform_sample(self.rng, st.n, box)
            batch = [Sample(next_sample_id(), p, SearchPhase.LOCAL) for p in points]
        if self._current is not None:
            batch.append(
                Sample(
                    next_sample_id(),
                    self._current.point.copy(),
                    self.phase,
                    incumbent=True,
                )
            )
        return batch

    def _advance(self) -> None:
        st = self.settings
        batch, self._batch = self._batch, []
        fresh = [s for s in batch if not s.incumbent]
        candidate = min(fresh, key=lambda s: (s.cost, s.sample_id))
        # The incumbent's cost is re-measured in the same wave, so the
        # improvement test is apples-to-apples under noise.
        incumbents = [s for s in batch if s.incumbent]
        reference = incumbents[0] if incumbents else self._current
        ref_cost = reference.cost if reference is not None else float("inf")
        if self._best_ever is None or candidate.cost < self._best_ever.cost:
            self._best_ever = candidate

        if self.phase is SearchPhase.GLOBAL:
            if self._first_global:
                # Lines 3-5: the initial LHS seeds Ccur unconditionally.
                self._first_global = False
                self._current = candidate
                self.neighborhood = Neighborhood(
                    candidate.point, st.initial_neighborhood
                )
                self.phase = SearchPhase.LOCAL
                self._notify(
                    "seed", sample_id=candidate.sample_id, cost=candidate.cost
                )
            elif candidate.cost < ref_cost:  # lines 22-25
                self._current = candidate
                self.neighborhood = Neighborhood(
                    candidate.point, st.initial_neighborhood
                )
                self.phase = SearchPhase.LOCAL
                self._notify(
                    "accept_global",
                    sample_id=candidate.sample_id,
                    cost=candidate.cost,
                    previous_cost=ref_cost,
                )
            else:  # lines 26-27
                if incumbents:
                    self._current = incumbents[0]  # keep the cost fresh
                self.global_rounds_without_improvement += 1
                if self.global_rounds_without_improvement >= st.global_search_limit:
                    self.phase = SearchPhase.DONE
                self._notify(
                    "give_up" if self.phase is SearchPhase.DONE else "reject_global",
                    sample_id=candidate.sample_id,
                    cost=candidate.cost,
                    best_cost=ref_cost,
                    rounds_without_improvement=(
                        self.global_rounds_without_improvement
                    ),
                )
            return

        # LOCAL phase (lines 8-17).
        assert self._current is not None and self.neighborhood is not None
        if candidate.cost < ref_cost:
            self._current = candidate
            self.neighborhood = self.neighborhood.recenter(
                candidate.point, st.initial_neighborhood
            )
            self._notify(
                "accept_local",
                sample_id=candidate.sample_id,
                cost=candidate.cost,
                previous_cost=ref_cost,
            )
        else:
            if incumbents:
                self._current = incumbents[0]
            self.neighborhood = self.neighborhood.shrink(st.shrink_factor)
            self._notify(
                "shrink",
                sample_id=candidate.sample_id,
                cost=candidate.cost,
                best_cost=ref_cost,
                neighborhood=self.neighborhood.size,
            )
        if self.neighborhood.size <= st.neighborhood_threshold:
            # Local optimum found; try another global round (line 18-20).
            self.phase = SearchPhase.GLOBAL
            self._notify("local_done", neighborhood=self.neighborhood.size)
