"""Shared resources: fair-shared links, semaphores, and stores.

The central abstraction is the :class:`FlowScheduler`, which models a
set of capacity-limited :class:`Link` objects carrying :class:`Flow`
objects.  Every flow traverses one or more links and optionally has a
per-flow rate cap; the scheduler allocates rates by progressive-filling
**max-min fairness**, the standard model for bandwidth sharing on
disks, NICs, and (approximately) time-shared CPUs.

Whenever a flow is added or completes, the scheduler advances every
active flow by the elapsed time at its previous rate, recomputes the
max-min allocation, and schedules a completion event for the earliest
finisher.  Stale completion events are invalidated by a token counter.

Hot-path notes
--------------
This module sits under every simulated byte and core-second, so the
scheduler keeps its bookkeeping incremental:

* per-link active-flow counts are maintained across calls (flow
  add/remove updates them) instead of being rebuilt from scratch on
  every recompute;
* the allocator writes rates in-place on :class:`Flow` objects rather
  than materialising a ``Dict[Flow, float]`` per recompute;
* an epoch counter tracks mutations (flow set or link capacities), so
  read-only consumers such as :meth:`FlowScheduler.utilization` -- the
  monitors poll it every heartbeat -- skip recomputation entirely when
  nothing changed since the last allocation;
* flow removal rebuilds the active list in one pass instead of paying
  ``list.remove`` per finished flow.

Determinism: the float arithmetic inside :func:`_fill_rates` mirrors
the original dict-returning implementation operation-for-operation, and
the active-flow list keeps strict insertion order (completion-time ties
and utilization float sums are order-sensitive), so event streams stay
byte-identical across the optimization (see
``tests/sim/test_kernel_equivalence.py``).

Complexity per recompute is ``O(levels * (live links + remaining
flows + capped flows) + sum of path lengths)``: each water level scans
the links that still carry an unfrozen flow and splits the unfrozen
flows once, and each flow's links are charged once, when it freezes.
At least one flow freezes per level.  A network solve on the
shuffle-heavy benchmark workload averages ~72 flows over ~38 live
links in ~5 levels.  Schedulers in this repository are kept node-local
(per-disk, per-CPU) or cluster-global (network) so the active flow
counts stay small.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event

_EPS = 1e-12
_INF = float("inf")


class Link:
    """A capacity-limited resource (bytes/s, ops/s, core-seconds/s)."""

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: float) -> None:
        if not capacity > 0:  # also rejects NaN
            raise ValueError(f"link {name!r} needs positive capacity, got {capacity}")
        self.name = name
        self.capacity = float(capacity)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Link {self.name} cap={self.capacity:g}>"


class Flow:
    """A unit of work streaming through one or more links."""

    __slots__ = (
        "links", "cap", "remaining", "event", "rate", "started_at", "label", "total",
        "done_below",
    )

    def __init__(
        self,
        links: Sequence[Link],
        amount: float,
        event: Event,
        cap: Optional[float] = None,
        label: str = "",
    ) -> None:
        self.links = tuple(links)
        self.total = float(amount)
        self.remaining = float(amount)
        #: Remaining work at or below which the flow counts as finished.
        self.done_below = _EPS * max(1.0, self.total)
        self.event = event
        self.cap = float(cap) if cap is not None else float("inf")
        self.rate = 0.0
        self.started_at = 0.0
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Flow {self.label} remaining={self.remaining:g} rate={self.rate:g}>"


def _fill_rates(active: List[Flow], counts: Dict[Link, int]) -> None:
    """Progressive-filling max-min fair allocation, written in-place.

    ``active`` is only read (iteration rebinds a local); ``counts``
    (link -> number of active flows crossing it, every count positive)
    is consumed as the set of live links: a link leaves it when its
    last flow freezes, and its leftover capacity is never read again.
    Each iteration either freezes all flows whose cap is below the
    current water level, or freezes every flow crossing a bottleneck
    link, so the loop terminates in at most ``len(active)`` iterations.

    The float expressions here must stay operation-identical to the
    historical implementation: allocations feed completion times, and
    completion times feed the golden run digests.
    """
    cap_left: Dict[Link, float] = {link: link.capacity for link in counts}
    # Only a capped flow can freeze at its cap: ``inf <= water + _EPS``
    # never holds once the water level is finite.
    capped = [f for f in active if f.cap != _INF]
    while active:
        # Fair share on the currently tightest link.
        water = _INF
        for link, n in counts.items():
            share = cap_left[link] / n
            if share < water:
                water = share
        if water == _INF:  # all remaining flows traverse no links
            for f in active:
                f.rate = f.cap
            return
        threshold = water + _EPS
        frozen = [f for f in capped if f.cap <= threshold]
        if frozen:
            for f in frozen:
                f.rate = min(f.cap, water)
            capped = [f for f in capped if not f.cap <= threshold]
            rest = [f for f in active if not f.cap <= threshold]
        else:
            # Freeze every flow crossing a bottleneck link.
            bottlenecks = {
                link for link, n in counts.items() if cap_left[link] / n <= threshold
            }
            rest = []
            for f in active:
                if bottlenecks.isdisjoint(f.links):
                    rest.append(f)
                else:
                    frozen.append(f)
                    f.rate = water
            if capped:
                capped = [f for f in capped if bottlenecks.isdisjoint(f.links)]
        for f in frozen:
            r = f.rate
            for link in f.links:
                n = counts[link] - 1
                if n:
                    counts[link] = n
                    v = cap_left[link] - r
                    cap_left[link] = v if v > 0.0 else 0.0
                else:
                    del counts[link]
        active = rest


def maxmin_rates(flows: Sequence[Flow]) -> Dict[Flow, float]:
    """Max-min fair allocation with per-flow caps; returns flow -> rate.

    The stateless entry point to the allocator :class:`FlowScheduler`
    runs in place on its hot path: it builds the link counts the
    scheduler keeps incrementally, so a test can check one allocation
    against a reference solver without a simulator.  Rates are *also*
    written to ``flow.rate`` as a side effect.
    """
    if not flows:
        return {}
    counts: Dict[Link, int] = {}
    for f in flows:
        for link in f.links:
            counts[link] = counts.get(link, 0) + 1
    _fill_rates(list(flows), counts)
    return {f: f.rate for f in flows}


class FlowScheduler:
    """Allocates link bandwidth across active flows, max-min fairly."""

    def __init__(self, sim: Simulator, name: str = "flows") -> None:
        self.sim = sim
        self.name = name
        #: Active flows in strict insertion order.  Order is load-bearing:
        #: completion ties fire in insertion order and utilization float
        #: sums accumulate in it, both of which feed the run digests.
        self._flows: List[Flow] = []
        #: Incremental link -> active-flow-count bookkeeping; links drop
        #: out when their count reaches zero.
        self._link_counts: Dict[Link, int] = {}
        self._last_update: float = 0.0
        self._token: int = 0  # invalidates stale completion events
        #: Mutation epoch: bumped whenever the active-flow set or a link
        #: capacity changes.  ``_rates_epoch`` records the epoch the
        #: current ``Flow.rate`` values were computed at, so read paths
        #: skip the allocator entirely while the two match.
        self._epoch: int = 1
        self._rates_epoch: int = 0
        #: Total work completed through this scheduler (diagnostics).
        self.completed_work: float = 0.0
        self.completed_flows: int = 0

    # -- public API -------------------------------------------------------
    def transfer(
        self,
        links: Sequence[Link],
        amount: float,
        cap: Optional[float] = None,
        label: str = "",
    ) -> Event:
        """Stream *amount* units through *links*; returns a completion event.

        Zero-sized transfers complete on the next calendar step.  A
        negative or NaN *amount* or *cap* is rejected before any state
        changes: a negative cap would hand its links' capacity to the
        other flows, and a NaN amount would never complete.
        """
        if not amount >= 0:
            raise SimulationError(f"transfer amount must be >= 0, got {amount}")
        if cap is not None and not cap >= 0:
            raise SimulationError(f"transfer cap must be >= 0, got {cap}")
        done = self.sim.event()
        if amount <= _EPS:
            done.succeed(0.0)
            return done
        flow = Flow(links, amount, done, cap=cap, label=label)
        flow.started_at = self.sim.now
        self._advance()
        self._flows.append(flow)
        self._track(flow)
        self._reschedule()
        return done

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def set_link_capacity(self, link: Link, capacity: float) -> None:
        """Change *link*'s capacity mid-flight (degraded / recovered hardware).

        In-flight flows keep the progress they made at the old rates; the
        allocation is recomputed from the new capacity.
        """
        if not capacity > 0:  # also rejects NaN
            raise SimulationError(
                f"link {link.name!r} needs positive capacity, got {capacity}"
            )
        self._advance()
        link.capacity = float(capacity)
        self._epoch += 1
        self._reschedule()

    def cancel_prefix(self, prefix: str) -> int:
        """Drop every flow whose label starts with *prefix*.

        The cancelled flows' completion events never fire -- callers are
        expected to be interrupted out of their waits separately.  Returns
        the number of flows dropped.
        """
        if not prefix:
            return 0
        self._advance()
        dropped = [f for f in self._flows if f.label.startswith(prefix)]
        if not dropped:
            return 0
        self._flows = [f for f in self._flows if not f.label.startswith(prefix)]
        for f in dropped:
            self._untrack(f)
        self._reschedule()
        return len(dropped)

    def utilization(self, link: Link) -> float:
        """Fraction of *link* capacity currently allocated."""
        self._refresh_rates()
        used = sum(f.rate for f in self._flows if link in f.links)
        return min(1.0, used / link.capacity)

    def utilizations(self, links: Iterable[Link]) -> Tuple[float, ...]:
        """Utilization for several links in one pass over active flows.

        Equivalent to ``tuple(self.utilization(l) for l in links)`` --
        including bit-identical float sums, since per-link accumulation
        follows the same active-flow order -- but scans the flow list
        once instead of once per link.
        """
        wanted = tuple(links)
        self._refresh_rates()
        used: Dict[Link, float] = {link: 0.0 for link in wanted}
        for f in self._flows:
            r = f.rate
            for link in f.links:
                if link in used:
                    used[link] += r
        return tuple(min(1.0, used[link] / link.capacity) for link in wanted)

    # -- internals --------------------------------------------------------
    def _track(self, flow: Flow) -> None:
        """Register *flow*'s links in the incremental count bookkeeping."""
        counts = self._link_counts
        for link in flow.links:
            counts[link] = counts.get(link, 0) + 1
        self._epoch += 1

    def _untrack(self, flow: Flow) -> None:
        """Remove *flow*'s links from the incremental count bookkeeping."""
        counts = self._link_counts
        for link in flow.links:
            n = counts[link] - 1
            if n:
                counts[link] = n
            else:
                del counts[link]
        self._epoch += 1

    def _advance(self) -> None:
        """Credit progress to all flows for time elapsed at current rates."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            for f in self._flows:
                rem = f.remaining - f.rate * dt
                f.remaining = rem if rem > 0.0 else 0.0
        self._last_update = now

    def _refresh_rates(self) -> None:
        """Bring ``Flow.rate`` values up to date; no-op when unchanged."""
        if self._rates_epoch != self._epoch:
            _fill_rates(self._flows, dict(self._link_counts))
            self._rates_epoch = self._epoch

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next completion."""
        self._token += 1
        token = self._token
        self._refresh_rates()
        soonest: Optional[Flow] = None
        soonest_t = float("inf")
        for f in self._flows:
            r = f.rate
            if r > _EPS:
                t = f.remaining / r
                if t < soonest_t:
                    soonest_t = t
                    soonest = f
        if soonest is None:
            if self._flows:
                raise SimulationError(
                    f"scheduler {self.name!r} has {len(self._flows)} flows but none "
                    "can make progress (all rates zero)"
                )
            return
        self.sim.call_at(self.sim.now + soonest_t, lambda: self._on_completion(token))

    def _on_completion(self, token: int) -> None:
        if token != self._token:
            return  # stale wakeup; a newer reschedule superseded it
        self._advance()
        flows = self._flows
        finished = [f for f in flows if f.remaining <= f.done_below]
        if not finished:
            # Numerical slack: finish the closest flow.
            finished = [min(flows, key=lambda f: f.remaining)]
        if len(finished) == len(flows):
            self._flows = []
        else:
            done = set(finished)
            self._flows = [f for f in flows if f not in done]
        for f in finished:
            self._untrack(f)
            self.completed_work += f.total
            self.completed_flows += 1
            f.event.succeed(self.sim.now - f.started_at)
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<FlowScheduler {self.name} active={len(self._flows)}>"


class Semaphore:
    """A counting semaphore with FIFO waiters (container slots, permits)."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "sem") -> None:
        if capacity < 1:
            raise ValueError("semaphore capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Tuple[int, Event]] = deque()

    def acquire(self, count: int = 1) -> Event:
        """Request *count* permits; the returned event fires when granted."""
        if count > self.capacity:
            raise SimulationError(
                f"requesting {count} permits from {self.name!r} (capacity {self.capacity})"
            )
        ev = self.sim.event()
        self._waiters.append((count, ev))
        self._drain()
        return ev

    def release(self, count: int = 1) -> None:
        self.in_use -= count
        if self.in_use < 0:
            raise SimulationError(f"semaphore {self.name!r} over-released")
        self._drain()

    def cancel(self, event: Event) -> bool:
        """Withdraw a not-yet-granted acquire; returns False if granted.

        A granted acquire (even one whose event has not fired yet) holds
        permits: the caller must :meth:`release` those instead.
        """
        for i, (_count, ev) in enumerate(self._waiters):
            if ev is event:
                del self._waiters[i]
                return True
        return False

    def _drain(self) -> None:
        waiters = self._waiters
        while waiters:
            count, ev = waiters[0]
            if self.in_use + count > self.capacity:
                break
            waiters.popleft()
            self.in_use += count
            ev.succeed(count)

    @property
    def available(self) -> int:
        return self.capacity - self.in_use


class Store:
    """An unbounded FIFO message store (mailboxes between components)."""

    def __init__(self, sim: Simulator, name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[object] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: object) -> None:
        self._items.append(item)
        self._drain()

    def get(self) -> Event:
        ev = self.sim.event()
        self._getters.append(ev)
        self._drain()
        return ev

    def _drain(self) -> None:
        items, getters = self._items, self._getters
        while items and getters:
            ev = getters.popleft()
            ev.succeed(items.popleft())

    def __len__(self) -> int:
        return len(self._items)
