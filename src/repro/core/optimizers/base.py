"""The ``Optimizer`` protocol and the shared wave machinery behind it.

MRONLINE's gray-box hill climber (Algorithm 1) is one point in a
design space the related work maps out: SPSA-style noisy gradient
descent, random search, Bayesian optimization, learned tuners.  All of
them fit the same asynchronous loop the online tuner speaks:

* :meth:`Optimizer.propose` hands out a *wave* of configuration
  samples (the same wave until it is fully observed; an empty list
  means the search has terminated);
* the tuner prices each sample with real task executions and feeds
  Equation-1 costs back through :meth:`Optimizer.observe`;
* when a wave is fully observed the backend advances its internal
  state (gradient step, recenter, shrink, ...);
* :meth:`Optimizer.rollback` voids an in-flight wave whose
  measurements the caller distrusts (fault-inflated), keeping the
  last-known-good configuration in charge;
* :meth:`Optimizer.mark_infeasible` brands a sample's neighborhood as
  OOM-prone so later waves auto-fail points landing there.

:class:`WaveOptimizer` implements the bookkeeping every backend shares
-- sample identity, wave lifecycle, infeasible regions, decision
listeners, and the best-cost trajectory the tuner tournament reports --
so a new backend only supplies :meth:`WaveOptimizer._make_batch` and
:meth:`WaveOptimizer._advance`.  The gray-box part is shared too:
:attr:`WaveOptimizer.bounds` is the rule-tightened sampling box every
backend draws from, which is what keeps the Section-6 rules effective
regardless of the search strategy behind them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.configuration import Configuration, enforce_dependencies
from repro.core.neighborhood import Bounds
from repro.core.parameters import ParameterSpace

#: Chebyshev radius (in the unit cube) of the region around an
#: OOM-observed point that is treated as infeasible.  Small enough not
#: to wall off viable space, large enough to stop re-sampling the
#: immediate vicinity of a known failure.
INFEASIBLE_RADIUS = 0.06


class SearchPhase(enum.Enum):
    GLOBAL = "global"
    LOCAL = "local"
    DONE = "done"


#: Process-wide sample identity: ids tag launched tasks with the point
#: they evaluate, so they must be unique across every live optimizer
#: (map and reduce subspaces of many jobs share one configurator).
_sample_ids = itertools.count(1)


def next_sample_id() -> int:
    return next(_sample_ids)


@dataclass
class Sample:
    """One configuration point handed out for evaluation."""

    sample_id: int
    point: np.ndarray
    phase: SearchPhase
    costs: List[float] = field(default_factory=list)
    #: True when this sample re-evaluates the current best point.  Task
    #: costs are noisy (cluster context varies between waves), so the
    #: incumbent rides along in every batch and comparisons stay
    #: within-wave -- the noise-tolerance property Section 5 claims.
    incumbent: bool = False

    @property
    def cost(self) -> Optional[float]:
        return sum(self.costs) / len(self.costs) if self.costs else None


def uniform_sample(rng: np.random.Generator, n: int, bounds) -> np.ndarray:
    """Plain uniform sampling within per-dimension bounds (no strata)."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return lo + rng.random((n, len(bounds))) * (hi - lo)


@runtime_checkable
class Optimizer(Protocol):
    """What the online tuner requires from a search backend."""

    space: ParameterSpace
    bounds: Bounds
    samples_proposed: int
    decision_listeners: List[Callable[[str, Dict[str, object]], None]]

    @property
    def finished(self) -> bool: ...

    def propose(self) -> List[Sample]: ...

    def pending_samples(self) -> List[Sample]: ...

    def observe(self, sample_id: int, cost: float) -> None: ...

    def rollback(self) -> bool: ...

    def mark_infeasible(self, sample_id: int) -> None: ...

    def is_infeasible(self, point: np.ndarray) -> bool: ...

    def best_point(self) -> Optional[np.ndarray]: ...

    def best_cost(self) -> Optional[float]: ...

    def best_config(self, base: Optional[Configuration] = None) -> Configuration: ...


class WaveOptimizer:
    """Shared wave lifecycle for :class:`Optimizer` implementations.

    Subclasses provide:

    * :meth:`_make_batch` -- draw the next wave of samples (may consult
      :attr:`bounds`, which the gray-box rules tighten between waves);
    * :meth:`_advance` -- consume the fully observed wave in
      ``self._batch`` (the subclass empties it) and update search
      state, setting :attr:`_done` when the search should terminate;
    * :meth:`_has_incumbent` / :meth:`_incumbent_cost` -- whether a
      last-known-good configuration exists for :meth:`rollback`.
    """

    def __init__(self, space: ParameterSpace, rng: np.random.Generator) -> None:
        self.space = space
        self.rng = rng
        self.bounds = Bounds(len(space))
        self._batch: List[Sample] = []
        self._by_id: Dict[int, Sample] = {}
        #: Evaluations of one sample required before its cost is trusted.
        self.replicas = 1
        self._done = False
        #: Total samples handed out (diagnostics).
        self.samples_proposed = 0
        #: Total cost observations fed back (one per replica evaluation).
        self.observations = 0
        #: ``(observations, best raw cost so far)`` checkpoints, appended
        #: whenever a new minimum is observed -- the samples-to-target
        #: series the optimizer tournament reports.
        self.cost_trajectory: List[Tuple[int, float]] = []
        self._best_observed: Optional[float] = None
        #: Waves handed out so far (a rollback re-draw counts as a new
        #: wave -- it proposes fresh samples).
        self.waves_started = 0
        #: The wave during which the best-so-far cost was observed; the
        #: tuning service compares this across warm- and cold-started
        #: jobs ("warm starts reach their best in fewer waves").
        self.wave_of_best: Optional[int] = None
        #: Centers of regions observed to be infeasible (OOM-prone).
        self._infeasible_points: List[np.ndarray] = []
        #: Total infeasibility marks received (diagnostics).
        self.infeasible_marks = 0
        #: Observers of search decisions, called as ``fn(decision, info)``
        #: with a short decision string ("seed", "accept_local", ...) and
        #: a plain-data info dict.  Backends stay simulation-agnostic;
        #: the tuner bridges these onto the telemetry bus.
        self.decision_listeners: List[Callable[[str, Dict[str, object]], None]] = []

    def _notify(self, decision: str, **info: object) -> None:
        if self.decision_listeners:
            for listener in self.decision_listeners:
                listener(decision, info)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._done

    def best_point(self) -> Optional[np.ndarray]:
        best = self._best_sample()
        return None if best is None else best.point.copy()

    def best_cost(self) -> Optional[float]:
        best = self._best_sample()
        return None if best is None else best.cost

    def best_config(self, base: Optional[Configuration] = None) -> Configuration:
        """Decode the best point into a full configuration."""
        base = base or Configuration()
        point = self.best_point()
        if point is None:
            return base
        return enforce_dependencies(base.updated(self.space.decode(point)))

    # ------------------------------------------------------------------
    # Batch protocol
    # ------------------------------------------------------------------
    def propose(self) -> List[Sample]:
        """Hand out the current batch (creating it if needed).

        Returns the same batch until it is fully observed; an empty list
        means the search has terminated.
        """
        if self.finished:
            return []
        if not self._batch:
            batch = self._make_batch()
            if not batch:
                # A backend that cannot draw another wave is done.
                self._done = True
                return []
            self._batch = batch
            for s in self._batch:
                self._by_id[s.sample_id] = s
            self.samples_proposed += len(self._batch)
            self.waves_started += 1
        return list(self._batch)

    def pending_samples(self) -> List[Sample]:
        """Samples of the current batch still lacking observations."""
        want = self.replicas
        return [s for s in self._batch if len(s.costs) < want]

    def observe(self, sample_id: int, cost: float) -> None:
        """Feed one evaluation back; advances the state when complete."""
        sample = self._by_id.get(sample_id)
        if sample is None:
            raise KeyError(f"unknown sample id {sample_id}")
        sample.costs.append(float(cost))
        self.observations += 1
        if self._best_observed is None or float(cost) < self._best_observed:
            self._best_observed = float(cost)
            self.cost_trajectory.append((self.observations, self._best_observed))
            self.wave_of_best = self.waves_started
        if not self.pending_samples() and self._batch:
            self._advance()

    def rollback(self) -> bool:
        """Void the in-flight batch and fall back to last-known-good.

        Safe-exploration escape hatch: when the caller decides a wave's
        measurements are untrustworthy (e.g. fetch-retry-inflated under
        network faults), the whole batch -- observations included -- is
        discarded *without* advancing the search state, so the
        last-known-good configuration stays in charge and the next
        :meth:`propose` re-draws around it.  Returns False when there is
        nothing to roll back to (no known-good configuration yet, or no
        batch in flight).
        """
        if not self._has_incumbent() or not self._batch:
            return False
        batch, self._batch = self._batch, []
        for sample in batch:
            sample.costs.clear()
        self._notify(
            "rollback",
            voided=len(batch),
            incumbent_cost=self._incumbent_cost(),
        )
        return True

    # ------------------------------------------------------------------
    # Infeasible regions
    # ------------------------------------------------------------------
    def mark_infeasible(self, sample_id: int) -> None:
        """Remember *sample_id*'s point as the center of a bad region.

        A configuration that OOMs is not merely expensive -- every point
        near it will OOM too.  Marked regions are consulted through
        :meth:`is_infeasible`, letting the caller auto-fail future
        samples that land there instead of burning task attempts on
        re-discovering the same wall.
        """
        sample = self._by_id.get(sample_id)
        if sample is None:
            raise KeyError(f"unknown sample id {sample_id}")
        self.infeasible_marks += 1
        self._notify(
            "infeasible",
            sample_id=sample_id,
            regions=len(self._infeasible_points) + 1,
        )
        for known in self._infeasible_points:
            if np.array_equal(known, sample.point):
                return
        self._infeasible_points.append(sample.point.copy())

    def is_infeasible(self, point: np.ndarray) -> bool:
        """True when *point* lies inside a known-infeasible region."""
        for known in self._infeasible_points:
            if float(np.max(np.abs(point - known))) <= INFEASIBLE_RADIUS:
                return True
        return False

    @property
    def infeasible_regions(self) -> int:
        return len(self._infeasible_points)

    # ------------------------------------------------------------------
    # Checkpoint (the recovery journal's record of a search)
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """A JSON-safe snapshot of the shared search state.

        Valid between waves: the in-flight batch is deliberately
        excluded (a crash voids it anyway -- see the tuner's
        degraded-mode rollback).  The recovery journal writes one per
        finished session: counters, the best-cost trajectory, the
        incumbent, the rule-tightened sampling bounds, and the
        infeasible regions.  Nothing reads it back into an optimizer.
        """
        return {
            "samples_proposed": int(self.samples_proposed),
            "observations": int(self.observations),
            "waves_started": int(self.waves_started),
            "wave_of_best": self.wave_of_best,
            "best_observed": self._best_observed,
            "cost_trajectory": [
                [int(n), float(c)] for n, c in self.cost_trajectory
            ],
            "bounds_lo": [float(x) for x in self.bounds.lo],
            "bounds_hi": [float(x) for x in self.bounds.hi],
            "infeasible_points": [
                [float(x) for x in p] for p in self._infeasible_points
            ],
            "infeasible_marks": int(self.infeasible_marks),
            "done": bool(self.finished),
            "incumbent_point": (
                None
                if self.best_point() is None
                else [float(x) for x in self.best_point()]
            ),
            "incumbent_cost": self.best_cost(),
        }

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _make_batch(self) -> List[Sample]:
        raise NotImplementedError

    def _advance(self) -> None:
        raise NotImplementedError

    def _best_sample(self) -> Optional[Sample]:
        raise NotImplementedError

    def _has_incumbent(self) -> bool:
        return self._best_sample() is not None

    def _incumbent_cost(self) -> Optional[float]:
        return self.best_cost()
